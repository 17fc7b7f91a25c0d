package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/smt"
	"repro/internal/units"
	"repro/internal/workload"
)

// SMTPoint compares naive and co-scheduled injection at one setting.
type SMTPoint struct {
	Label string
	Naive Figure3Point // per-context independent injection
	CoSch Figure3Point // sibling-aligned injection
	// CoreC1EShareNaive/CoSch: fraction of injected idle time during
	// which the physical cores actually reached C1E.
	ForcedIdles int
}

// SMTResult is the §3.2 extension study: idle quantum co-scheduling across
// SMT sibling contexts.
type SMTResult struct {
	BaselineRate float64 // unconstrained work rate with SMT enabled
	Points       []SMTPoint
}

// RunSMTCoScheduling enables two hardware contexts per core (the
// configuration the paper disabled to avoid exactly this problem), runs
// eight cpuburn instances, and compares naive per-context injection against
// sibling-aligned co-scheduling. Naive injection leaves the sibling context
// running, so the core never reaches C1E during injected quanta and the
// trade-off collapses; co-scheduling recovers most of the non-SMT
// efficiency.
func RunSMTCoScheduling(scale Scale, ec engine.Config) SMTResult {
	settle := scale.seconds(200)
	window := scale.seconds(30)

	type outcome struct {
		res    SteadyResult
		forced int
	}
	run := func(p float64, l units.Time, cosched bool, seed uint64) outcome {
		cfg := machineConfig(ec)
		cfg.Meter.Disabled = true
		cfg.Seed = seed
		cfg.SMTContexts = 2
		m := machine.New(cfg)
		if p > 0 {
			base := core.NewController(m.RNG.Split())
			if err := base.SetGlobal(core.Params{P: p, L: l}); err != nil {
				panic(err)
			}
			var inj sched.Injector = base
			if cosched {
				co, err := smt.New(m.Sched, base, cfg.SMTContexts)
				if err != nil {
					panic(err)
				}
				inj = co
			}
			m.Sched.SetInjector(inj)
		}
		contexts := cfg.Model.NumCores * cfg.SMTContexts
		for i := 0; i < contexts; i++ {
			m.Sched.Spawn(workload.Burn(), sched.SpawnConfig{
				Name:        fmt.Sprintf("burn-%d", i),
				PowerFactor: 1.0,
			})
		}
		m.RunFor(settle)
		i0 := m.MeanJunctionIntegral()
		w0 := m.TotalWorkDone()
		t0 := m.Now()
		m.RunFor(window)
		i1 := m.MeanJunctionIntegral()
		w1 := m.TotalWorkDone()
		t1 := m.Now()
		secs := (t1 - t0).Seconds()
		var forced int
		if c, ok := m.Sched.Injector().(*smt.CoScheduler); ok {
			forced = c.ForcedIdles
		}
		return outcome{
			res: SteadyResult{
				MeanJunction: units.Celsius((i1 - i0) / secs),
				WorkRate:     (w1 - w0) / secs,
				IdleTemp:     m.IdleJunctionTemp(),
			},
			forced: forced,
		}
	}

	grid := []struct {
		p float64
		l units.Time
	}{
		{0.25, 10 * units.Millisecond},
		{0.5, 10 * units.Millisecond},
		{0.5, 50 * units.Millisecond},
		{0.75, 50 * units.Millisecond},
		{0.75, 100 * units.Millisecond},
	}

	// Baseline first, then a naive/co-scheduled pair per grid point.
	type smtSpec struct {
		p       float64
		l       units.Time
		cosched bool
		seed    uint64
	}
	specs := []smtSpec{{0, 0, false, 800}}
	seed := uint64(810)
	for _, g := range grid {
		seed += 2
		specs = append(specs,
			smtSpec{g.p, g.l, false, seed},
			smtSpec{g.p, g.l, true, seed + 1})
	}
	outs := runner.Map(ec.Jobs, specs, func(_ int, s smtSpec) outcome {
		return run(s.p, s.l, s.cosched, s.seed)
	})
	base := outs[0]

	var res SMTResult
	res.BaselineRate = base.res.WorkRate
	toPoint := func(p float64, l units.Time, o outcome) Figure3Point {
		pt := Tradeoff("", base.res, o.res)
		eff := 0.0
		if pt.PerfReduction > 0 {
			eff = pt.TempReduction / pt.PerfReduction
		}
		return Figure3Point{P: p, L: l, TempRed: pt.TempReduction, PerfRed: pt.PerfReduction, Efficiency: eff}
	}
	for i, g := range grid {
		naive := outs[1+2*i]
		co := outs[2+2*i]
		res.Points = append(res.Points, SMTPoint{
			Label:       fmt.Sprintf("p=%g L=%v", g.p, g.l),
			Naive:       toPoint(g.p, g.l, naive),
			CoSch:       toPoint(g.p, g.l, co),
			ForcedIdles: co.forced,
		})
	}
	return res
}

// String renders the comparison table.
func (r SMTResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: SMT idle co-scheduling (§3.2), 2 contexts/core, 8x cpuburn\n")
	fmt.Fprintf(&b, "unconstrained SMT work rate: %.2f ref-s/s\n", r.BaselineRate)
	b.WriteString(" config            naive r/T/eff          co-scheduled r/T/eff    gang idles\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, " %-16s  %5.3f/%5.3f/%5.2f      %5.3f/%5.3f/%5.2f     %d\n",
			p.Label,
			p.Naive.TempRed, p.Naive.PerfRed, p.Naive.Efficiency,
			p.CoSch.TempRed, p.CoSch.PerfRed, p.CoSch.Efficiency,
			p.ForcedIdles)
	}
	b.WriteString("(naive per-context injection cannot reach C1E — the sibling keeps the\n")
	b.WriteString(" core awake; ganging the quanta recovers the low-power state)\n")
	return b.String()
}

// Files renders the naive and co-scheduled trade-offs side by side.
func (r SMTResult) Files() []export.File {
	var b strings.Builder
	b.WriteString("label,naive_r,naive_T,naive_eff,cosched_r,cosched_T,cosched_eff,gang_idles\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%q,%.6f,%.6f,%.4f,%.6f,%.6f,%.4f,%d\n", p.Label,
			p.Naive.TempRed, p.Naive.PerfRed, p.Naive.Efficiency,
			p.CoSch.TempRed, p.CoSch.PerfRed, p.CoSch.Efficiency, p.ForcedIdles)
	}
	return []export.File{{Name: "ext_smt.csv", Content: b.String()}}
}
