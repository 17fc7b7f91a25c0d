// Package experiments contains one harness per table and figure of the
// paper's evaluation (§3). Each harness builds fresh simulated testbeds, runs
// the paper's workloads under the technique sweep in question, and returns
// structured results whose String methods print the same rows or series the
// paper reports. DESIGN.md §3 maps every harness to its paper artefact.
package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// Scale shrinks experiment durations and trial counts so the benchmark
// harness finishes quickly; 1.0 reproduces the paper's full durations.
type Scale float64

// Full is the paper-duration scale.
const Full Scale = 1.0

// Quick is the scale used by `go test` integration tests.
const Quick Scale = 0.1

// seconds returns d scaled, with a floor so windows never collapse to zero.
func (s Scale) seconds(d float64) units.Time {
	v := d * float64(s)
	if v < 2 {
		v = 2
	}
	return units.FromSeconds(v)
}

// trials scales a trial count, flooring at 3.
func (s Scale) trials(n int) int {
	v := int(float64(n) * float64(s))
	if v < 3 {
		v = 3
	}
	return v
}

// machineConfig is the calibrated testbed (machine.DefaultConfig) under the
// engine's integrator; an empty one resolves to exact in machine.New.
func machineConfig(ec engine.Config) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Integrator = ec.Integrator
	return cfg
}

// SteadyRun measures one technique under a steady workload: it runs the
// workload for settle+window seconds and reports the time-weighted mean
// junction temperature and aggregate work rate over the final window —
// mirroring §3.4's "average temperature over the last 30 seconds of a 300
// second execution".
type SteadyResult struct {
	MeanJunction units.Celsius // time-weighted mean over the window
	WorkRate     float64       // reference-seconds of work per second
	MeanPower    units.Watts   // mean package power over the window
	IdleTemp     units.Celsius // all-idle equilibrium of the same machine
}

// SpawnFunc populates a machine with workload threads.
type SpawnFunc func(m *machine.Machine)

// SpawnBurnPerCore returns a SpawnFunc starting one infinite CPU-bound
// thread per core with the given power factor (the paper's "four instances,
// one per core").
func SpawnBurnPerCore(powerFactor float64) SpawnFunc {
	return func(m *machine.Machine) {
		for i := 0; i < m.Chip.NumCores(); i++ {
			m.Sched.Spawn(workload.Burn(), sched.SpawnConfig{
				Name:        fmt.Sprintf("burn-%d", i),
				PowerFactor: powerFactor,
			})
		}
	}
}

// RunSteady builds a machine from cfg, applies the technique, spawns the
// workload, and measures the final window. The simulated power meter is
// switched off: every SteadyResult field derives from the exact accumulator
// and temperature integrals, and skipping the instrument chain's 3 kHz noise
// draws roughly halves the cost of a trial without changing any output.
func RunSteady(cfg machine.Config, tech dtm.Technique, spawn SpawnFunc, settle, window units.Time) SteadyResult {
	cfg.Meter.Disabled = true
	m := machine.New(cfg)
	if err := tech.Apply(m); err != nil {
		panic(fmt.Sprintf("experiments: applying %s: %v", tech.Label(), err))
	}
	spawn(m)
	m.RunFor(settle)
	i0 := m.MeanJunctionIntegral()
	w0 := m.TotalWorkDone()
	e0 := m.Energy.Energy()
	t0 := m.Now()
	m.RunFor(window)
	i1 := m.MeanJunctionIntegral()
	w1 := m.TotalWorkDone()
	e1 := m.Energy.Energy()
	t1 := m.Now()
	secs := (t1 - t0).Seconds()
	return SteadyResult{
		MeanJunction: units.Celsius((i1 - i0) / secs),
		WorkRate:     (w1 - w0) / secs,
		MeanPower:    units.Watts(float64(e1-e0) / secs),
		IdleTemp:     m.IdleJunctionTemp(),
	}
}

// SteadyTrial is one self-contained RunSteady invocation: everything a
// worker needs to execute the trial, including the explicit seed inside Cfg.
// Trials must never share stochastic state — the runner executes them
// concurrently in submission order.
type SteadyTrial struct {
	Cfg            machine.Config
	Tech           dtm.Technique
	Spawn          SpawnFunc
	Settle, Window units.Time
}

// RunSteadyAll executes the trials across a pool of jobs workers and
// returns their results indexed like trials. Output is independent of the
// parallelism level because each trial is a deterministic function of its
// spec alone.
func RunSteadyAll(jobs int, trials []SteadyTrial) []SteadyResult {
	return runner.Map(jobs, trials, func(_ int, t SteadyTrial) SteadyResult {
		return RunSteady(t.Cfg, t.Tech, t.Spawn, t.Settle, t.Window)
	})
}

// Tradeoff converts a policy run and its unconstrained baseline into the
// paper's (temperature reduction, performance reduction) coordinates:
//
//	r    = (T_baseline − T_policy) / (T_baseline − T_idle)
//	T(r) = 1 − rate_policy/rate_baseline
func Tradeoff(label string, baseline, policy SteadyResult) analysis.TradeoffPoint {
	rise := float64(baseline.MeanJunction - baseline.IdleTemp)
	var r float64
	if rise > 0 {
		r = float64(baseline.MeanJunction-policy.MeanJunction) / rise
	}
	var perf float64
	if baseline.WorkRate > 0 {
		perf = 1 - policy.WorkRate/baseline.WorkRate
	}
	return analysis.TradeoffPoint{Label: label, TempReduction: r, PerfReduction: perf}
}
