package machine

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// buildPair builds two identical machines differing only in integrator mode
// and applies the same deterministic setup to both.
func buildPair(t *testing.T, mutate func(*Config), setup func(*Machine)) (exact, leap *Machine) {
	t.Helper()
	mk := func(mode string) *Machine {
		cfg := DefaultConfig()
		cfg.Meter.Disabled = true
		cfg.Integrator = mode
		if mutate != nil {
			mutate(&cfg)
		}
		m := New(cfg)
		if setup != nil {
			setup(m)
		}
		return m
	}
	exact = mk(IntegratorExact)
	leap = mk(IntegratorLeap)
	if exact.LeapActive() {
		t.Fatal("exact machine reports leap active")
	}
	if !leap.LeapActive() {
		t.Fatal("leap machine did not activate the leap integrator")
	}
	return exact, leap
}

// maxJunctionDiff returns the max-abs per-core junction temperature
// difference between two machines at their current (equal) virtual times.
func maxJunctionDiff(a, b *Machine) float64 {
	ta, tb := a.JunctionTemps(), b.JunctionTemps()
	var worst float64
	for i := range ta {
		d := math.Abs(float64(ta[i]) - float64(tb[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestLeapMatchesExactUnderInjection is the max-abs-temp-divergence property
// test for the leap integrator under the paper's own workload shape: four
// cpuburn threads under a probabilistic injection policy, which exercises
// quiescent windows of every length between injection, quantum and
// work-completion events. Sampled at the scenario metric tick, the leap
// trajectory must track the exact integrator far inside the 0.05 °C band
// the golden harness accepts.
func TestLeapMatchesExactUnderInjection(t *testing.T) {
	setup := func(m *Machine) {
		ctl := core.NewController(m.RNG.Split())
		if err := ctl.SetGlobal(core.Params{P: 0.5, L: 25 * units.Millisecond}); err != nil {
			t.Fatal(err)
		}
		m.Sched.SetInjector(ctl)
		for i := 0; i < 4; i++ {
			m.Sched.Spawn(workload.Burn(), sched.SpawnConfig{PowerFactor: 1})
		}
	}
	exact, leap := buildPair(t, nil, setup)

	const tick = 100 * units.Millisecond
	var worst float64
	for exact.Now() < 20*units.Second {
		exact.RunFor(tick)
		leap.RunFor(tick)
		if d := maxJunctionDiff(exact, leap); d > worst {
			worst = d
		}
	}
	if worst >= 0.05 {
		t.Fatalf("leap diverged from exact by %.4f C (>= 0.05 C)", worst)
	}
	t.Logf("max junction divergence over 20 s: %.6f C", worst)

	if ie, il := exact.MeanJunctionIntegral(), leap.MeanJunctionIntegral(); math.Abs(ie-il)/ie > 1e-3 {
		t.Errorf("temperature integrals diverged: exact %.6f leap %.6f", ie, il)
	}
	ee := float64(exact.Energy.Energy())
	el := float64(leap.Energy.Energy())
	if math.Abs(ee-el)/ee > 1e-3 {
		t.Errorf("energy diverged: exact %.3f J leap %.3f J", ee, el)
	}
	if we, wl := exact.TotalWorkDone(), leap.TotalWorkDone(); we != wl {
		t.Errorf("work done diverged (scheduling must be integrator-independent): exact %v leap %v", we, wl)
	}
	chunks, steps := leap.Net.Net.LeapStats()
	if steps == 0 {
		t.Fatal("leap integrator never engaged")
	}
	if chunks >= steps {
		t.Errorf("leap compressed nothing: %d chunks for %d steps", chunks, steps)
	}
	t.Logf("leap compression: %d steps in %d chunks (%.1fx)", steps, chunks, float64(steps)/float64(chunks))
}

// TestLeapMatchesExactIdleDecay covers the long fully quiescent window: a
// heated machine whose threads exit, leaving tens of seconds of event-free
// exponential cool-down — the regime where the propagator leaps thousands of
// steps per chunk and the frozen-leakage error controller matters most.
func TestLeapMatchesExactIdleDecay(t *testing.T) {
	setup := func(m *Machine) {
		for i := 0; i < 4; i++ {
			m.Sched.Spawn(workload.FiniteBurn(5), sched.SpawnConfig{PowerFactor: 1})
		}
	}
	exact, leap := buildPair(t, nil, setup)

	// Heat-up with events, then one long span across the decay.
	for _, span := range []units.Time{6 * units.Second, 30 * units.Second, 60 * units.Second} {
		exact.RunFor(span)
		leap.RunFor(span)
		if d := maxJunctionDiff(exact, leap); d >= 0.05 {
			t.Fatalf("after %v: divergence %.4f C (>= 0.05 C)", span, d)
		}
	}
	if ie, il := exact.MeanJunctionIntegral(), leap.MeanJunctionIntegral(); math.Abs(ie-il)/ie > 1e-3 {
		t.Errorf("temperature integrals diverged: exact %.6f leap %.6f", ie, il)
	}
	chunks, steps := leap.Net.Net.LeapStats()
	if steps == 0 {
		t.Fatal("leap integrator never engaged")
	}
	if ratio := float64(steps) / float64(chunks); ratio < 10 {
		t.Errorf("idle decay should leap many steps per chunk, got %.1f", ratio)
	}
}

// TestLeapHotspotConfig checks the leap path against the five-node-per-core
// hotspot topology (millisecond time constants, 1 ms step cap).
func TestLeapHotspotConfig(t *testing.T) {
	mutate := func(cfg *Config) {
		cfg.HotspotFraction = 0.3
		cfg.SenseHotspot = true
	}
	setup := func(m *Machine) {
		for i := 0; i < 4; i++ {
			m.Sched.Spawn(workload.PeriodicBurst(0.4, 600*units.Millisecond), sched.SpawnConfig{PowerFactor: 1})
		}
	}
	exact, leap := buildPair(t, mutate, setup)
	for exact.Now() < 5*units.Second {
		exact.RunFor(100 * units.Millisecond)
		leap.RunFor(100 * units.Millisecond)
		if d := maxJunctionDiff(exact, leap); d >= 0.05 {
			t.Fatalf("hotspot divergence %.4f C (>= 0.05 C)", d)
		}
	}
}

// TestLeapFallsBackForIntraSpanObservers pins the gating rule: a leap
// request with the meter chain or temperature tracing enabled integrates
// exactly (those observers sample inside spans).
func TestLeapFallsBackForIntraSpanObservers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Integrator = IntegratorLeap
	if m := New(cfg); m.LeapActive() {
		t.Error("leap active with the meter chain enabled")
	}
	cfg.Meter.Disabled = true
	cfg.TempSampleEvery = 50 * units.Millisecond
	if m := New(cfg); m.LeapActive() {
		t.Error("leap active with temperature tracing enabled")
	}
	cfg.TempSampleEvery = 0
	if m := New(cfg); !m.LeapActive() {
		t.Error("leap inactive with no intra-span observers")
	}
}

// TestIntegratorResolution pins the resolution order: an explicit config
// wins, an empty one resolves to exact, and an unknown mode panics.
func TestIntegratorResolution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Meter.Disabled = true
	if m := New(cfg); m.LeapActive() || m.Config().Integrator != IntegratorExact {
		t.Errorf("empty integrator resolved to %q (leap active %v), want exact", m.Config().Integrator, m.LeapActive())
	}
	cfg.Integrator = IntegratorLeap
	if m := New(cfg); !m.LeapActive() {
		t.Error("explicit leap did not engage")
	}
	cfg.Integrator = "warp"
	defer func() {
		if recover() == nil {
			t.Error("unknown integrator accepted")
		}
	}()
	New(cfg)
}

// TestSteadySteppingZeroAllocs is the -benchmem contract as a hard test:
// once warm, event-free integration allocates nothing on either integrator,
// and the dispatcher-facing telemetry snapshot is allocation-free too.
func TestSteadySteppingZeroAllocs(t *testing.T) {
	for _, mode := range []string{IntegratorExact, IntegratorLeap} {
		cfg := DefaultConfig()
		cfg.Meter.Disabled = true
		cfg.Integrator = mode
		m := New(cfg)
		m.RunFor(units.Second) // warm caches, ladders and scratch
		if n := testing.AllocsPerRun(20, func() {
			m.RunFor(100 * units.Millisecond)
		}); n > 0 {
			t.Errorf("%s: steady idle stepping allocates %.1f/op, want 0", mode, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			_ = m.Telemetry()
		}); n > 0 {
			t.Errorf("%s: Telemetry allocates %.1f/op, want 0", mode, n)
		}
	}
}

// TestBusySteppingZeroAllocs extends the contract to the paper's workload:
// four cpuburn threads under p=0.5, L=25 ms fire an injection, quantum or
// work-completion event every few milliseconds, and the scheduler re-arms
// its owned timer events instead of allocating one per dispatch.
func TestBusySteppingZeroAllocs(t *testing.T) {
	for _, mode := range []string{IntegratorExact, IntegratorLeap} {
		cfg := DefaultConfig()
		cfg.Meter.Disabled = true
		cfg.Integrator = mode
		m := New(cfg)
		ctl := core.NewController(m.RNG.Split())
		if err := ctl.SetGlobal(core.Params{P: 0.5, L: 25 * units.Millisecond}); err != nil {
			t.Fatal(err)
		}
		m.Sched.SetInjector(ctl)
		for i := 0; i < 4; i++ {
			m.Sched.Spawn(workload.Burn(), sched.SpawnConfig{PowerFactor: 1})
		}
		m.RunFor(5 * units.Second) // warm caches, ladders and scratch
		before := m.Sched.TotalInjections
		if n := testing.AllocsPerRun(20, func() {
			m.RunFor(100 * units.Millisecond)
		}); n > 0 {
			t.Errorf("%s: busy stepping allocates %.1f/op, want 0", mode, n)
		}
		if m.Sched.TotalInjections == before {
			t.Errorf("%s: no injections in the measured window", mode)
		}
	}
}
