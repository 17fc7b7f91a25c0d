package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// Process IDs used by the Figure 5 scenario.
const (
	HotProcessID  = 1 // four instances of calculix, continuously CPU-bound
	CoolProcessID = 2 // periodic short-running burst (6 s burn, 60 s sleep)
)

// Figure5Point is one configuration's outcome: the system temperature
// reduction achieved and the throughput retained by the cool process.
type Figure5Point struct {
	Label          string
	TempReduction  float64
	CoolThroughput float64 // fraction of the cool process's baseline rate
}

// Figure5Result holds the global-versus-per-thread comparison of Figure 5.
type Figure5Result struct {
	Global    []Figure5Point
	PerThread []Figure5Point
	// Boundaries: Pareto frontiers maximising both axes.
	GlobalPareto    []Figure5Point
	PerThreadPareto []Figure5Point
	BaseCoolRate    float64
}

// RunFigure5 reproduces Figure 5: a thermally heterogeneous mix — a "hot"
// process (four calculix instances) co-located with a periodic "cool"
// process — managed either by a system-wide policy or by a per-process
// policy that targets only the hot process. With per-thread control the cool
// process runs essentially uninterrupted while system temperature drops;
// with global control it is unfairly penalised for the hot process's heat.
func RunFigure5(scale Scale, ec engine.Config) Figure5Result {
	duration := scale.seconds(600)
	warm := duration / 10

	calculix, err := workload.FindSpec("calculix")
	if err != nil {
		panic(err)
	}

	type outcome struct {
		meanTemp units.Celsius
		idleTemp units.Celsius
		coolRate float64
	}
	run := func(params core.Params, perThread bool, seed uint64) outcome {
		cfg := machineConfig(ec)
		cfg.Meter.Disabled = true
		cfg.Seed = seed
		m := machine.New(cfg)
		if params.Enabled() {
			ctl := core.NewController(m.RNG.Split())
			if perThread {
				if err := ctl.SetProcess(HotProcessID, params); err != nil {
					panic(err)
				}
			} else {
				if err := ctl.SetGlobal(params); err != nil {
					panic(err)
				}
			}
			m.Sched.SetInjector(ctl)
		}
		workload.SpawnSpec(m.Sched, calculix, HotProcessID, m.Chip.NumCores())
		m.Sched.Spawn(workload.PeriodicBurst(6.0, 60*units.Second), sched.SpawnConfig{
			Name:        "cool",
			ProcessID:   CoolProcessID,
			PowerFactor: 1.0,
		})
		m.RunUntil(warm)
		i0 := m.MeanJunctionIntegral()
		c0 := m.ProcessWorkDone(CoolProcessID)
		t0 := m.Now()
		m.RunUntil(duration)
		i1 := m.MeanJunctionIntegral()
		c1 := m.ProcessWorkDone(CoolProcessID)
		t1 := m.Now()
		secs := (t1 - t0).Seconds()
		return outcome{
			meanTemp: units.Celsius((i1 - i0) / secs),
			idleTemp: m.IdleJunctionTemp(),
			coolRate: (c1 - c0) / secs,
		}
	}

	// The baseline plus the p×L×{global,per-thread} sweep as one trial
	// list, seeds assigned in the sequential submission order.
	type f5Spec struct {
		params    core.Params
		perThread bool
		seed      uint64
	}
	specs := []f5Spec{{core.Params{}, false, 500}}
	seed := uint64(50000)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		for _, l := range []units.Time{10 * units.Millisecond, 50 * units.Millisecond, 100 * units.Millisecond} {
			for _, perThread := range []bool{false, true} {
				seed++
				specs = append(specs, f5Spec{core.Params{P: p, L: l}, perThread, seed})
			}
		}
	}
	outs := runner.Map(ec.Jobs, specs, func(_ int, s f5Spec) outcome {
		return run(s.params, s.perThread, s.seed)
	})
	base := outs[0]
	baseRise := float64(base.meanTemp - base.idleTemp)

	var res Figure5Result
	res.BaseCoolRate = base.coolRate
	for i, s := range specs[1:] {
		o := outs[i+1]
		pt := Figure5Point{
			Label:          s.params.String(),
			TempReduction:  float64(base.meanTemp-o.meanTemp) / baseRise,
			CoolThroughput: o.coolRate / base.coolRate,
		}
		if s.perThread {
			res.PerThread = append(res.PerThread, pt)
		} else {
			res.Global = append(res.Global, pt)
		}
	}
	res.GlobalPareto = fig5Pareto(res.Global)
	res.PerThreadPareto = fig5Pareto(res.PerThread)
	return res
}

// fig5Pareto keeps points not dominated in (max TempReduction, max
// CoolThroughput), sorted by temperature reduction.
func fig5Pareto(points []Figure5Point) []Figure5Point {
	conv := make([]analysis.TradeoffPoint, len(points))
	for i, p := range points {
		conv[i] = analysis.TradeoffPoint{
			Label:         p.Label,
			TempReduction: p.TempReduction,
			PerfReduction: 1 - p.CoolThroughput,
		}
	}
	front := analysis.ParetoFrontier(conv)
	out := make([]Figure5Point, len(front))
	for i, p := range front {
		out[i] = Figure5Point{Label: p.Label, TempReduction: p.TempReduction, CoolThroughput: 1 - p.PerfReduction}
	}
	return out
}

// String renders both boundaries.
func (r Figure5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: global versus thread-specific control (cool process throughput)\n")
	write := func(name string, pts []Figure5Point) {
		fmt.Fprintf(&b, "\n%s pareto boundary:\n", name)
		for _, p := range pts {
			fmt.Fprintf(&b, "  temp reduction %5.1f%%  cool throughput %6.1f%%  (%s)\n",
				100*p.TempReduction, 100*p.CoolThroughput, p.Label)
		}
	}
	write("per-thread", r.PerThreadPareto)
	write("global", r.GlobalPareto)
	b.WriteString("\n(paper: with thread-specific control the cool process runs uninterrupted\n")
	b.WriteString(" while system temperature is lowered; global policies penalise it)\n")
	return b.String()
}

// Files renders the global and per-thread sweeps.
func (r Figure5Result) Files() []export.File {
	return []export.File{
		fig5CSV("fig5_global.csv", r.Global),
		fig5CSV("fig5_per_thread.csv", r.PerThread),
	}
}
