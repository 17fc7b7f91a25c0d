package scenario

import (
	"fmt"
	"math"

	"repro/internal/adaptive"
	"repro/internal/dtm"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/webserver"
	"repro/internal/workload"
)

// MachineTrial is one fleet member's fully resolved run: everything a runner
// worker needs, including the machine's derived seed and per-machine fan
// factor. Trials share only the immutable Spec.
type MachineTrial struct {
	Spec      *Spec
	Index     int
	Seed      uint64
	FanFactor float64
	// AmbientC is this machine's resolved ambient (aisle position applied);
	// 0 keeps the testbed default.
	AmbientC float64
	// Integrator is the machine's resolved thermal integrator.
	Integrator string

	Duration units.Time
	Warmup   units.Time
	Tick     units.Time
}

// MachineSeed derives fleet member i's seed from the scenario base seed.
// The golden-ratio stride decorrelates adjacent indices before the rng
// package's splitmix expansion; the result is a pure function of (base, i),
// which is what makes fleet sharding order-independent: any worker can run
// any machine and produce identical bytes.
//
// It is also injective in i: the stride is odd, so base + i·γ differs for
// every i modulo 2⁶⁴; splitmix64 is a bijection of its state; and xoshiro's
// first output rotl(s1·5, 7)·9 is a bijection of s1. One compiled fleet
// therefore never holds two equal (config, seed) trials, and the fleet
// engine has no duplicate simulations to share.
func MachineSeed(base uint64, i int) uint64 {
	return rng.New(base + uint64(i)*0x9e3779b97f4a7c15).Uint64()
}

// scaleSeconds mirrors the experiment harnesses' duration scaling: virtual
// seconds shrink proportionally with a 2 s floor so windows never collapse.
func scaleSeconds(scale, d float64) units.Time {
	v := d * scale
	if v < 2 {
		v = 2
	}
	return units.FromSeconds(v)
}

// MetricTick is the fleet engine's polling period for peak-temperature and
// violation accounting. 100 ms resolves junction excursions (τ ≈ 30 ms at
// the junction, seconds at the package) without dominating run time. The
// fleetsched engine samples at the same tick so its per-machine metrics are
// directly comparable with unscheduled scenario runs.
const MetricTick = 100 * units.Millisecond

// Compile resolves the spec into the fleet's trial list at the given scale
// under the default engine. The spec must have been validated.
func (s *Spec) Compile(scale float64) []MachineTrial { return s.CompileFor(scale, "") }

// CompileFor is Compile under an engine integrator. Resolution: the spec's
// own integrator field wins, then the engine's, then leap — scenario and
// sched runs read only tick-sampled aggregates, never intra-span state, so
// the leap tolerance (validated against exact by the golden harness and the
// leap-vs-exact divergence job) applies.
func (s *Spec) CompileFor(scale float64, integrator string) []MachineTrial {
	if s.Machine.Integrator != "" {
		integrator = s.Machine.Integrator
	} else if integrator == "" {
		integrator = machine.IntegratorLeap
	}
	duration := scaleSeconds(scale, s.DurationS)
	warmup := units.FromSeconds(duration.Seconds() * s.WarmupFrac)
	trials := make([]MachineTrial, s.Fleet.Machines)
	for i := range trials {
		seed := MachineSeed(s.Fleet.BaseSeed, i)
		ff := s.Machine.FanFactor
		if ff <= 0 {
			ff = 1
		}
		// Identity draws come from the machine's own seed; the machine RNG
		// is seeded with the same value but the streams never interact (the
		// machine splits substreams off it). Draw order is fixed — fan
		// first, then aisle — so enabling one spread never re-deals the
		// other.
		idDraws := rng.New(seed)
		if s.Fleet.FanSpread > 0 {
			ff *= 1 + s.Fleet.FanSpread*idDraws.Float64()
		} else {
			idDraws.Float64()
		}
		amb := s.Machine.AmbientC
		if s.Fleet.AmbientSpreadC > 0 {
			if amb <= 0 {
				amb = float64(machine.DefaultConfig().Ambient)
			}
			amb += s.Fleet.AmbientSpreadC * idDraws.Float64()
		}
		trials[i] = MachineTrial{
			Spec: s, Index: i, Seed: seed, FanFactor: ff, AmbientC: amb, Integrator: integrator,
			Duration: duration, Warmup: warmup, Tick: MetricTick,
		}
	}
	return trials
}

// violationC returns the effective violation threshold.
func (s *Spec) violationC() float64 {
	if s.ViolationC > 0 {
		return s.ViolationC
	}
	return DefaultViolationC
}

// ViolationThreshold returns the effective thermal-violation threshold in °C
// (the configured value, or the default when left zero).
func (s *Spec) ViolationThreshold() float64 { return s.violationC() }

// Build materialises the trial's machine: configuration, DTM policy (with
// the TM1 monitor when armed) and the static workload mix, leaving the
// machine at t=0 ready to run. It is the construction seam shared by the
// scenario engine (simulate) and the fleetsched cross-machine engine, which
// must build identical fleet members before coordinating them.
func (t *MachineTrial) Build() (*machine.Machine, *dtm.TM1, *webserver.Server, error) {
	m := machine.New(t.machineConfig())
	tm1, err := t.applyPolicy(m)
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := t.spawn(m)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, tm1, srv, nil
}

// machineConfig builds the testbed configuration for one trial.
func (t *MachineTrial) machineConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Meter.Disabled = true
	cfg.Seed = t.Seed
	cfg.FanFactor = t.FanFactor
	ms := t.Spec.Machine
	if ms.Cores > 0 && ms.Cores != cfg.Model.NumCores {
		model := *cfg.Model
		model.NumCores = ms.Cores
		model.Name = fmt.Sprintf("%s ×%d-core", model.Name, ms.Cores)
		cfg.Model = &model
	}
	if t.AmbientC > 0 {
		cfg.Ambient = units.Celsius(t.AmbientC)
	} else if ms.AmbientC > 0 {
		cfg.Ambient = units.Celsius(ms.AmbientC)
	}
	if ms.SMTContexts > 1 {
		cfg.SMTContexts = ms.SMTContexts
	}
	cfg.Integrator = t.Integrator
	return cfg
}

// applyPolicy configures the DTM technique (and the optional TM1 backstop)
// on a freshly built machine, returning the monitor when armed.
func (t *MachineTrial) applyPolicy(m *machine.Machine) (*dtm.TM1, error) {
	p := t.Spec.Policy
	var tm1 *dtm.TM1
	tm1Cfg := dtm.DefaultTM1Config()
	if p.TM1 {
		var err error
		tm1, err = dtm.AttachTM1(m, tm1Cfg)
		if err != nil {
			return nil, err
		}
	}
	switch p.Kind {
	case "", PolicyNone:
	case PolicyDimetrodon:
		tech := dtm.Dimetrodon{P: p.P, L: units.FromMilliseconds(p.LMS), Deterministic: p.Deterministic}
		if err := tech.Apply(m); err != nil {
			return nil, err
		}
	case PolicyVFS:
		if err := (dtm.VFS{PState: p.PState}).Apply(m); err != nil {
			return nil, err
		}
	case PolicyP4TCC:
		if err := (dtm.P4TCC{Duty: p.Duty}).Apply(m); err != nil {
			return nil, err
		}
	case PolicyAdaptive:
		target := units.Celsius(p.TargetC)
		if target <= 0 {
			if p.TM1 {
				target = tm1Cfg.Trip - 5
			} else {
				target = 60
			}
		}
		if _, err := adaptive.Attach(m, adaptive.DefaultConfig(target)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("scenario: unknown policy kind %q", p.Kind)
	}
	return tm1, nil
}

// envelope builds a component's load envelope over virtual time; nil means
// steady full load.
func (t *MachineTrial) envelope(a ArrivalSpec) func(units.Time) float64 {
	switch a.Pattern {
	case ArrivalDiurnal:
		period := t.Duration.Seconds()
		if a.PeriodS > 0 {
			// The configured period scales with the run, one compressed
			// day staying one compressed day at any scale.
			period = t.Duration.Seconds() * a.PeriodS / t.Spec.DurationS
		}
		min := a.MinLoad
		return func(now units.Time) float64 {
			phase := 2 * math.Pi * now.Seconds() / period
			return min + (1-min)*0.5*(1-math.Cos(phase))
		}
	case ArrivalWindow:
		start := units.FromSeconds(t.Duration.Seconds() * a.StartFrac)
		end := units.FromSeconds(t.Duration.Seconds() * a.EndFrac)
		return func(now units.Time) float64 {
			if now >= start && now < end {
				return 1
			}
			return 0
		}
	default:
		return nil
	}
}

// envelopeFrame is the duty-modulation frame for shaped arrivals: long
// enough that the scheduler's 100 ms timeslices fit, short against every
// scenario duration floor.
const envelopeFrame = units.Second

// spawn populates the machine with the spec's workload mix, returning the
// webserver benchmark when one is configured.
func (t *MachineTrial) spawn(m *machine.Machine) (*webserver.Server, error) {
	schedCores := m.Config().Model.NumCores * m.Config().SMTContexts
	var srv *webserver.Server
	for ci, c := range t.Spec.Workload {
		threads := c.Threads
		if threads == 0 {
			threads = schedCores
		}
		switch c.Kind {
		case KindWebserver:
			webCfg := webserver.DefaultConfig()
			if c.Connections > 0 {
				webCfg.Connections = c.Connections
			}
			if c.Workers > 0 {
				webCfg.Workers = c.Workers
			}
			// Align the QoS window exactly with the scenario warmup, so
			// web stats exclude the same leading span as every other
			// metric (including warmup_frac = 0: count everything).
			webCfg.Warmup = t.Warmup
			srv = webserver.New(m, webCfg)
			continue
		case KindBurn, KindSpec, KindPeriodic, KindTrojan:
		default:
			return nil, fmt.Errorf("scenario: unknown component kind %q", c.Kind)
		}

		pf := c.PowerFactor
		name := c.Kind
		var fresh func() sched.Program
		switch c.Kind {
		case KindBurn:
			if pf == 0 {
				pf = 1
			}
			fresh = workload.Burn
		case KindSpec:
			spec, err := workload.FindSpec(c.Benchmark)
			if err != nil {
				return nil, err
			}
			if pf == 0 {
				pf = spec.PowerFactor
			}
			name = spec.Name
			fresh = workload.Burn
		case KindPeriodic:
			if pf == 0 {
				pf = 1
			}
			burst, pause := c.BurstS, units.FromSeconds(c.PauseS)
			fresh = func() sched.Program { return workload.PeriodicBurst(burst, pause) }
		case KindTrojan:
			if pf == 0 {
				pf = 1
			}
			period, duty := units.FromMilliseconds(c.PeriodMS), c.Duty
			fresh = func() sched.Program { return workload.Trojan(period, duty) }
		}
		// An arrival envelope replaces the component's program with a
		// duty-modulated one; validate() restricts envelopes to the
		// plain-compute kinds, for which that substitution is exact.
		if env := t.envelope(c.Arrival); env != nil {
			fresh = func() sched.Program { return workload.Modulated(env, envelopeFrame) }
		}
		for i := 0; i < threads; i++ {
			prog := fresh()
			m.Sched.Spawn(prog, sched.SpawnConfig{
				Name:        fmt.Sprintf("%s-%d-%d", name, ci, i),
				ProcessID:   ci + 1,
				PowerFactor: pf,
			})
		}
	}
	return srv, nil
}
