package experiments

import (
	"fmt"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// AdaptivePhase summarises one load phase of the adaptive-control extension.
type AdaptivePhase struct {
	Name      string
	MeanDTS   float64 // observed hottest-junction mean over the phase tail
	MeanP     float64 // actuated injection probability over the phase tail
	TargetErr float64 // MeanDTS − target (°C)
}

// AdaptiveResult is the extension study: a temperature-setpoint controller
// holding the hottest junction at a target across load changes — the online
// policy adjustment §2.1 sketches.
type AdaptiveResult struct {
	Target units.Celsius
	Idle   units.Celsius
	Phases []AdaptivePhase
	// PTrace/TempTrace are downsampled actuation and observation traces
	// across the whole run.
	PTrace, TempTrace []float64
}

// RunAdaptiveControl exercises the setpoint controller through three phases:
// heavy load (4× cpuburn — target only reachable with injection), light load
// (1× cpuburn — naturally below target, controller must back off), and heavy
// again (controller must re-engage).
func RunAdaptiveControl(scale Scale, ec engine.Config) AdaptiveResult {
	phaseDur := scale.seconds(200)
	cfg := machineConfig(ec)
	// Inherently sequential (one machine through three load phases), but the
	// unread instrument chain still costs nothing.
	cfg.Meter.Disabled = true
	cfg.Seed = 31
	m := machine.New(cfg)
	idle := m.IdleJunctionTemp()
	target := units.Celsius(float64(idle) + 12)

	ctl, err := adaptive.Attach(m, adaptive.DefaultConfig(target))
	if err != nil {
		panic(err)
	}

	// Phase 1: heavy — four infinite burners; one of them is "phase-long"
	// so we can retire three of them for the light phase.
	heavy := make([]*sched.Thread, 0, 3)
	m.Sched.Spawn(workload.Burn(), sched.SpawnConfig{Name: "persistent", PowerFactor: 1})
	stop := make([]*stopFlag, 3)
	for i := range stop {
		stop[i] = &stopFlag{}
		heavy = append(heavy, m.Sched.Spawn(stop[i].program(), sched.SpawnConfig{
			Name: fmt.Sprintf("heavy-%d", i), PowerFactor: 1,
		}))
	}
	_ = heavy

	res := AdaptiveResult{Target: target, Idle: idle}
	measure := func(name string) {
		tail := phaseDur / 2
		start := m.Now() + phaseDur - tail
		m.RunUntil(m.Now() + phaseDur)
		meanT, _ := ctl.TempTrace.MeanOver(start, m.Now())
		meanP, _ := ctl.PTrace.MeanOver(start, m.Now())
		res.Phases = append(res.Phases, AdaptivePhase{
			Name:      name,
			MeanDTS:   meanT,
			MeanP:     meanP,
			TargetErr: meanT - float64(target),
		})
	}

	measure("heavy (4x cpuburn)")
	for _, s := range stop {
		s.stop = true
	}
	measure("light (1x cpuburn)")
	for i := range stop {
		stop[i] = &stopFlag{}
		m.Sched.Spawn(stop[i].program(), sched.SpawnConfig{
			Name: fmt.Sprintf("heavy2-%d", i), PowerFactor: 1,
		})
	}
	measure("heavy again (4x cpuburn)")

	for _, s := range ctl.PTrace.Downsample(60).Samples() {
		res.PTrace = append(res.PTrace, s.Value)
	}
	for _, s := range ctl.TempTrace.Downsample(60).Samples() {
		res.TempTrace = append(res.TempTrace, s.Value)
	}
	return res
}

// stopFlag lets a burner program be retired externally at its next chunk
// boundary (≤1 ref-second of residual work).
type stopFlag struct{ stop bool }

func (s *stopFlag) program() sched.Program {
	return sched.ProgramFunc(func(units.Time) sched.Action {
		if s.stop {
			return sched.Exit()
		}
		return sched.Compute(1.0)
	})
}

// String renders the phase table.
func (r AdaptiveResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: adaptive setpoint control (target %.1fC, idle %.1fC)\n",
		float64(r.Target), float64(r.Idle))
	b.WriteString(" phase                      mean DTS   mean p    target err\n")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, " %-25s  %6.2fC   %6.3f    %+5.2fC\n",
			p.Name, p.MeanDTS, p.MeanP, p.TargetErr)
	}
	b.WriteString("(the controller spends performance only when heat demands it,\n")
	b.WriteString(" re-engaging automatically when the heavy load returns)\n")
	return b.String()
}

// Files renders the per-phase control summary.
func (r AdaptiveResult) Files() []export.File {
	var b strings.Builder
	b.WriteString("phase,mean_dts_c,mean_p,target_err_c\n")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%q,%.4f,%.4f,%.4f\n", p.Name, p.MeanDTS, p.MeanP, p.TargetErr)
	}
	return []export.File{{Name: "ext_adaptive.csv", Content: b.String()}}
}
