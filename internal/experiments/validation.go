package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// ThroughputValidationRow is one configuration of the §3.3 throughput model
// validation: measured runtime versus the analytical prediction
// D(t) = R + S·p/(1−p)·L over many trials.
type ThroughputValidationRow struct {
	P          float64
	L          units.Time
	Trials     int
	Predicted  units.Time
	MeanActual units.Time
	// DeviationPct is (predicted−actual)/actual throughput deviation: the
	// paper reports implementations averaging 1.0 % lower throughput than
	// the model, growing with p (context switching and state monitoring
	// overheads).
	DeviationPct float64
}

// ThroughputValidationResult aggregates the §3.3 throughput grid.
type ThroughputValidationResult struct {
	Rows    []ThroughputValidationRow
	Work    float64 // reference-seconds per trial
	MeanDev float64 // mean throughput deviation, %
}

// RunValidationThroughput reproduces §3.3's throughput validation: a finite
// cpuburn under p ∈ {.25,.5,.75} × L ∈ {25,50,75,100} ms, many trials each,
// compared against the analytical model.
func RunValidationThroughput(scale Scale, ec engine.Config) ThroughputValidationResult {
	work := 7.0 * float64(scale)
	if work < 1 {
		work = 1
	}
	trials := scale.trials(100)
	res := ThroughputValidationResult{Work: work}
	var devSum float64
	q := machine.DefaultConfig().Sched.Timeslice

	// Flatten the p×L×trial grid into one trial list; every entry's seed is
	// a pure function of its coordinates, so the sweep parallelises without
	// any shared randomness.
	type vtSpec struct {
		p, lms float64
		trial  int
	}
	var specs []vtSpec
	for _, p := range []float64{0.25, 0.5, 0.75} {
		for _, lms := range []float64{25, 50, 75, 100} {
			for trial := 0; trial < trials; trial++ {
				specs = append(specs, vtSpec{p, lms, trial})
			}
		}
	}
	runtimes := runner.Map(ec.Jobs, specs, func(_ int, s vtSpec) float64 {
		l := units.FromMilliseconds(s.lms)
		cfg := machineConfig(ec)
		cfg.Meter.Disabled = true
		cfg.Seed = uint64(1000*s.p) + uint64(s.lms)*1000 + uint64(s.trial) + 7
		m := machine.New(cfg)
		if err := (dtm.Dimetrodon{P: s.p, L: l}).Apply(m); err != nil {
			panic(err)
		}
		t := m.Sched.Spawn(workload.FiniteBurn(work), sched.SpawnConfig{
			Name: "burnP6", PowerFactor: 1.0,
		})
		horizon := units.FromSeconds(work/(1-s.p)*3 + 5)
		for !t.Exited() && m.Now() < horizon {
			m.RunFor(250 * units.Millisecond)
		}
		return t.Runtime(m.Now()).Seconds()
	})

	i := 0
	for _, p := range []float64{0.25, 0.5, 0.75} {
		for _, lms := range []float64{25, 50, 75, 100} {
			l := units.FromMilliseconds(lms)
			model := analysis.ThroughputModel{P: p, L: l, Q: q}
			predicted := model.PredictRuntime(units.FromSeconds(work))
			actuals := runtimes[i : i+trials]
			i += trials
			sum := analysis.Summarize(actuals)
			// Throughput ∝ 1/runtime: deviation of measured
			// throughput from predicted throughput.
			dev := (predicted.Seconds()/sum.Mean - 1) * 100
			devSum += dev
			res.Rows = append(res.Rows, ThroughputValidationRow{
				P: p, L: l, Trials: trials,
				Predicted:    predicted,
				MeanActual:   units.FromSeconds(sum.Mean),
				DeviationPct: dev,
			})
		}
	}
	res.MeanDev = devSum / float64(len(res.Rows))
	return res
}

// String renders the validation table.
func (r ThroughputValidationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.3 throughput model validation (R=%.1fs cpuburn)\n", r.Work)
	b.WriteString("   p    L      predicted    measured     throughput dev\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %4.2f  %-6v %10.3fs %10.3fs    %+6.2f%%\n",
			row.P, row.L, row.Predicted.Seconds(), row.MeanActual.Seconds(), row.DeviationPct)
	}
	fmt.Fprintf(&b, "mean deviation: %+.2f%% (paper: −1.0%%, growing with p)\n", r.MeanDev)
	return b.String()
}

// EnergyValidationRow is one configuration of §3.3's energy validation:
// Dimetrodon's measured energy as a fraction of race-to-idle's over an equal
// window, as the clamp+multimeter chain reports it.
type EnergyValidationRow struct {
	P      float64
	L      units.Time
	Trials int
	// RatioPct is mean measured Dimetrodon energy / race-to-idle energy
	// ×100; the paper observed 97.6–103.7 %.
	RatioPct float64
	// TrueRatioPct uses exact (noise-free) energy accounting.
	TrueRatioPct float64
}

// EnergyValidationResult aggregates the §3.3 energy grid.
type EnergyValidationResult struct {
	Rows        []EnergyValidationRow
	MeanDevPct  float64 // mean of (ratio−100); paper −0.37 %
	MeanAbsDev  float64 // mean |ratio−100|; paper 1.67 %
	MinRatioPct float64
	MaxRatioPct float64
}

// RunValidationEnergy reproduces §3.3's energy validation: a 7 s finite
// cpuburn (four instances, one per core) under p ∈ {.25,.5,.75} ×
// L ∈ {50,100} ms; Dimetrodon's consumed energy is compared to race-to-idle
// over the same total window, five trials per configuration.
func RunValidationEnergy(scale Scale, ec engine.Config) EnergyValidationResult {
	work := 7.0 * float64(scale)
	if work < 1 {
		work = 1
	}
	trials := scale.trials(5)
	res := EnergyValidationResult{MinRatioPct: 1e9, MaxRatioPct: -1e9}
	var devSum, absSum float64

	// Each grid entry is a Dimetrodon/race-to-idle pair; the race run must
	// follow its partner (it reuses the Dimetrodon run's window), so the
	// pair is the unit of parallelism.
	type veSpec struct {
		p, lms float64
		trial  int
	}
	type veOut struct{ ratio, trueRatio float64 }
	var specs []veSpec
	for _, p := range []float64{0.25, 0.5, 0.75} {
		for _, lms := range []float64{50, 100} {
			for trial := 0; trial < trials; trial++ {
				specs = append(specs, veSpec{p, lms, trial})
			}
		}
	}
	outs := runner.Map(ec.Jobs, specs, func(_ int, s veSpec) veOut {
		l := units.FromMilliseconds(s.lms)
		seed := uint64(s.trial)*97 + uint64(s.lms) + uint64(s.p*1000)
		dimE, dimTrue, window := runEnergyTrial(ec, dtm.Dimetrodon{P: s.p, L: l}, work, seed, 0)
		raceE, raceTrue, _ := runEnergyTrial(ec, dtm.RaceToIdle{}, work, seed+1, window)
		return veOut{
			ratio:     float64(dimE) / float64(raceE) * 100,
			trueRatio: float64(dimTrue) / float64(raceTrue) * 100,
		}
	})

	i := 0
	for _, p := range []float64{0.25, 0.5, 0.75} {
		for _, lms := range []float64{50, 100} {
			l := units.FromMilliseconds(lms)
			var ratios, trueRatios []float64
			for trial := 0; trial < trials; trial++ {
				ratios = append(ratios, outs[i].ratio)
				trueRatios = append(trueRatios, outs[i].trueRatio)
				i++
			}
			mr := analysis.Summarize(ratios).Mean
			tr := analysis.Summarize(trueRatios).Mean
			devSum += mr - 100
			absSum += mathAbs(mr - 100)
			if mr < res.MinRatioPct {
				res.MinRatioPct = mr
			}
			if mr > res.MaxRatioPct {
				res.MaxRatioPct = mr
			}
			res.Rows = append(res.Rows, EnergyValidationRow{
				P: p, L: l, Trials: trials, RatioPct: mr, TrueRatioPct: tr,
			})
		}
	}
	res.MeanDevPct = devSum / float64(len(res.Rows))
	res.MeanAbsDev = absSum / float64(len(res.Rows))
	return res
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runEnergyTrial runs four finite-burn threads under tech and returns the
// meter-measured and exact energies over the window. If window is zero the
// run extends until completion (plus idle tail to the modelled horizon) and
// that horizon is returned for the paired race-to-idle run.
func runEnergyTrial(ec engine.Config, tech dtm.Technique, work float64, seed uint64, window units.Time) (units.Joules, units.Joules, units.Time) {
	cfg := machineConfig(ec)
	cfg.Seed = seed
	m := machine.New(cfg)
	if err := tech.Apply(m); err != nil {
		panic(err)
	}
	var threads []*sched.Thread
	for i := 0; i < m.Chip.NumCores(); i++ {
		threads = append(threads, m.Sched.Spawn(workload.FiniteBurn(work), sched.SpawnConfig{
			Name: fmt.Sprintf("burn-%d", i), PowerFactor: 1.0,
		}))
	}
	if window <= 0 {
		// Run to completion.
		horizon := units.FromSeconds(work*12 + 5)
		for m.Now() < horizon {
			m.RunFor(100 * units.Millisecond)
			all := true
			for _, t := range threads {
				if !t.Exited() {
					all = false
					break
				}
			}
			if all {
				break
			}
		}
		window = m.Now()
	} else {
		m.RunUntil(window)
	}
	return m.Meter.MeasuredEnergy(), m.Energy.Energy(), window
}

// String renders the energy table.
func (r EnergyValidationResult) String() string {
	var b strings.Builder
	b.WriteString("§3.3 energy model validation (Dimetrodon energy as % of race-to-idle)\n")
	b.WriteString("   p    L      measured   exact\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %4.2f  %-6v  %6.1f%%   %6.1f%%\n", row.P, row.L, row.RatioPct, row.TrueRatioPct)
	}
	fmt.Fprintf(&b, "range %.1f%%–%.1f%%, mean dev %+.2f%%, mean |dev| %.2f%%\n",
		r.MinRatioPct, r.MaxRatioPct, r.MeanDevPct, r.MeanAbsDev)
	b.WriteString("(paper: 97.6%%–103.7%%, mean −0.37%%, mean abs 1.67%%, clamp accuracy ±3.5%%)\n")
	return b.String()
}

// Files renders the throughput validation grid.
func (r ThroughputValidationResult) Files() []export.File {
	var b strings.Builder
	b.WriteString("p,L_ms,trials,predicted_s,measured_s,throughput_dev_pct\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%g,%g,%d,%.6f,%.6f,%.4f\n",
			row.P, row.L.Milliseconds(), row.Trials,
			row.Predicted.Seconds(), row.MeanActual.Seconds(), row.DeviationPct)
	}
	return []export.File{{Name: "val_throughput.csv", Content: b.String()}}
}

// Files renders the energy validation grid.
func (r EnergyValidationResult) Files() []export.File {
	var b strings.Builder
	b.WriteString("p,L_ms,trials,measured_ratio_pct,exact_ratio_pct\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%g,%g,%d,%.4f,%.4f\n",
			row.P, row.L.Milliseconds(), row.Trials, row.RatioPct, row.TrueRatioPct)
	}
	return []export.File{{Name: "val_energy.csv", Content: b.String()}}
}
