// Package scenario is the fleet-scale scenario engine: it turns declarative
// scenario specifications — machine topology, a workload mix with arrival
// patterns, a DTM policy, a duration, and a fleet size — into trial lists
// fanned across the deterministic runner pool, and aggregates the
// per-machine outcomes into fleet-level metrics (temperature percentiles
// across machines, total idle-injection overhead, thermal-violation counts).
//
// The paper's harnesses (internal/experiments) replay fixed evaluations of a
// single testbed; scenarios generalise the same simulator to shapes the
// paper never ran: diurnal datacenter load, flash crowds against the web
// workload, MATTER-style adversarial thermal trojans, multi-tenant
// colocation, and fleet-wide cooling emergencies. CoMeT's whole-system
// simulation and MATTER's adversarial thermal workloads (see PAPERS.md)
// motivate the two axes of growth — scale and adversity.
//
// Determinism carries over from the runner contract: every machine in a
// fleet derives its seed from the scenario's base seed and its own index,
// never from a shared stream, so fleet output is byte-identical at any
// -jobs level.
package scenario

import (
	"encoding/json"
	"fmt"

	"repro/internal/machine"
	"repro/internal/workload"
)

// Spec declares one scenario. The zero value is invalid; fill the fields and
// Validate, or Decode from JSON. All durations are virtual seconds at scale
// 1.0 — the engine scales them the way the experiment harnesses scale the
// paper's run lengths.
type Spec struct {
	Name    string `json:"name"`
	Title   string `json:"title"`
	Summary string `json:"summary"`

	Fleet    FleetSpec       `json:"fleet"`
	Machine  MachineSpec     `json:"machine"`
	Workload []ComponentSpec `json:"workload"`
	Policy   PolicySpec      `json:"policy"`

	// Scheduler, when present, turns the fleet into a coordinated cluster:
	// job arrival streams routed across machines by a placement policy (see
	// SchedulerSpec). Such scenarios run through internal/fleetsched's
	// cross-machine engine instead of the independent per-machine path, and
	// the Workload components (if any) become per-machine background load.
	Scheduler *SchedulerSpec `json:"scheduler,omitempty"`

	// DurationS is the per-machine run length in virtual seconds at scale
	// 1.0; WarmupFrac is the leading fraction excluded from every metric.
	DurationS  float64 `json:"duration_s"`
	WarmupFrac float64 `json:"warmup_frac"`

	// ViolationC is the junction temperature counted as a thermal
	// violation; 0 selects the default of 70 °C (comfortably below the
	// 85 °C TM1 trip, the operating band a preventive system defends).
	ViolationC float64 `json:"violation_c"`
}

// DefaultViolationC is the violation threshold used when a spec leaves
// ViolationC zero.
const DefaultViolationC = 70.0

// FleetSpec sizes the simulated fleet.
type FleetSpec struct {
	// Machines is the number of independent machines; each is one trial
	// for the runner pool.
	Machines int `json:"machines"`
	// BaseSeed roots the per-machine seed derivation (see MachineSeed).
	BaseSeed uint64 `json:"base_seed"`
	// FanSpread models rack-position and manufacturing airflow variance:
	// machine i's fan factor is scaled by 1 + FanSpread·u_i with u_i a
	// deterministic uniform draw from the machine's seed. Zero gives a
	// homogeneous fleet.
	FanSpread float64 `json:"fan_spread"`
	// AmbientSpreadC models hot-aisle/cold-aisle placement: machine i's
	// ambient is raised by AmbientSpreadC·v_i °C with v_i a deterministic
	// uniform draw from the machine's seed. Unlike fan spread (which acts
	// through the slow heatsink node), aisle position shifts the whole
	// thermal stack immediately — the heterogeneity a temperature-aware
	// placement policy exploits. Zero gives a uniform room.
	AmbientSpreadC float64 `json:"ambient_spread_c"`
}

// MachineSpec overrides testbed parameters; zero fields keep the calibrated
// paper machine (quad-core Xeon E5520, full-speed fans, 25.2 °C ambient).
type MachineSpec struct {
	Cores       int     `json:"cores"`
	FanFactor   float64 `json:"fan_factor"`
	AmbientC    float64 `json:"ambient_c"`
	SMTContexts int     `json:"smt_contexts"`
	// Integrator pins the thermal integrator for this scenario: "exact"
	// (byte-identical step-by-step kernel) or "leap" (the
	// quiescence-leaping propagator, tolerance-mode). Empty defers to the
	// run's engine integrator and then to the default of leap — scenario
	// metrics are tick-sampled aggregates, exactly the shape the leap
	// tolerance is calibrated for.
	Integrator string `json:"integrator,omitempty"`
}

// Component kinds.
const (
	KindBurn      = "burn"      // cpuburn: infinite full-power loops
	KindSpec      = "spec"      // a SPEC CPU2006 proxy benchmark
	KindPeriodic  = "periodic"  // compute/sleep square wave (Figure 5's cool task)
	KindTrojan    = "trojan"    // MATTER-style adversarial thermal burst
	KindWebserver = "webserver" // the §3.7 closed-loop web workload
)

// Arrival patterns.
const (
	ArrivalSteady  = "steady"  // constant load (the default)
	ArrivalDiurnal = "diurnal" // sinusoidal day/night envelope
	ArrivalWindow  = "window"  // active only inside [StartFrac, EndFrac)
)

// ComponentSpec is one element of the workload mix.
type ComponentSpec struct {
	Kind string `json:"kind"`
	// Threads is the thread count for compute kinds; 0 means one per
	// scheduler core.
	Threads int `json:"threads"`
	// PowerFactor overrides the activity factor; 0 keeps the kind's
	// default (1.0 for burn/trojan, the calibrated factor for spec).
	PowerFactor float64 `json:"power_factor"`

	// Benchmark names the SPEC proxy (kind "spec").
	Benchmark string `json:"benchmark"`

	// BurstS/PauseS parameterise kind "periodic": compute BurstS
	// reference-seconds, sleep PauseS seconds, repeat.
	BurstS float64 `json:"burst_s"`
	PauseS float64 `json:"pause_s"`

	// PeriodMS/Duty parameterise kind "trojan": a full-power square wave
	// with the given period (tuned near the junction's ≈30 ms thermal
	// time constant for maximum peak-per-utilisation) and on-fraction.
	PeriodMS float64 `json:"period_ms"`
	Duty     float64 `json:"duty"`

	// Connections/Workers override the webserver defaults (kind
	// "webserver"); 0 keeps the paper's 440/16.
	Connections int `json:"connections"`
	Workers     int `json:"workers"`

	Arrival ArrivalSpec `json:"arrival"`
}

// ArrivalSpec shapes a compute component's load over time.
type ArrivalSpec struct {
	// Pattern is one of the Arrival* constants; empty means steady.
	Pattern string `json:"pattern"`
	// MinLoad is the diurnal trough as a fraction of full load.
	MinLoad float64 `json:"min_load"`
	// PeriodS is the diurnal period in virtual seconds at scale 1.0;
	// 0 uses the scenario duration (one compressed day per run).
	PeriodS float64 `json:"period_s"`
	// StartFrac/EndFrac bound the window pattern as fractions of the
	// full run duration.
	StartFrac float64 `json:"start_frac"`
	EndFrac   float64 `json:"end_frac"`
}

// Policy kinds.
const (
	PolicyNone       = "none"
	PolicyDimetrodon = "dimetrodon"
	PolicyVFS        = "vfs"
	PolicyP4TCC      = "p4tcc"
	PolicyAdaptive   = "adaptive"
)

// PolicySpec selects the DTM technique applied to every machine.
type PolicySpec struct {
	Kind string `json:"kind"`
	// P/LMS/Deterministic parameterise kind "dimetrodon".
	P             float64 `json:"p"`
	LMS           float64 `json:"l_ms"`
	Deterministic bool    `json:"deterministic"`
	// PState selects the pinned operating point for kind "vfs".
	PState int `json:"pstate"`
	// Duty is the delivered-clock fraction for kind "p4tcc".
	Duty float64 `json:"duty"`
	// TargetC is the adaptive controller's setpoint; 0 derives it (5 °C
	// below the TM1 trip when TM1 is armed, otherwise 60 °C).
	TargetC float64 `json:"target_c"`
	// TM1 arms the reactive thermal-monitor backstop alongside the
	// policy; its trips and throttled time are reported per machine.
	TM1 bool `json:"tm1"`
}

// Clone returns an independent copy of the spec (the Workload slice and the
// optional Scheduler block are the reference fields).
func (s *Spec) Clone() *Spec {
	c := *s
	c.Workload = append([]ComponentSpec(nil), s.Workload...)
	if s.Scheduler != nil {
		sc := *s.Scheduler
		sc.Jobs = append([]JobClassSpec(nil), s.Scheduler.Jobs...)
		c.Scheduler = &sc
	}
	return &c
}

// Decode parses a JSON scenario spec and validates it. Malformed input
// returns an error; it never panics (FuzzScenarioSpec pins this).
func Decode(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Hard bounds keeping compiled scenarios finite. They exist so a hostile or
// corrupted spec cannot allocate an unbounded fleet or spin the simulator
// forever — Validate enforces them before Compile builds anything.
const (
	MaxMachines   = 4096
	MaxComponents = 32
	MaxThreads    = 256
	MaxDurationS  = 24 * 3600
	MaxCores      = 64
)

// Validate reports the first problem with the spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	for _, r := range s.Name {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-') {
			return fmt.Errorf("scenario %q: name must be lowercase [a-z0-9-]", s.Name)
		}
	}
	if s.Fleet.Machines < 1 || s.Fleet.Machines > MaxMachines {
		return fmt.Errorf("scenario %q: fleet of %d machines outside [1,%d]", s.Name, s.Fleet.Machines, MaxMachines)
	}
	if s.Fleet.FanSpread < 0 || s.Fleet.FanSpread > 4 {
		return fmt.Errorf("scenario %q: fan spread %v outside [0,4]", s.Name, s.Fleet.FanSpread)
	}
	if s.Fleet.AmbientSpreadC < 0 || s.Fleet.AmbientSpreadC > 20 {
		return fmt.Errorf("scenario %q: ambient spread %v°C outside [0,20]", s.Name, s.Fleet.AmbientSpreadC)
	}
	if s.Machine.Cores < 0 || s.Machine.Cores > MaxCores {
		return fmt.Errorf("scenario %q: %d cores outside [0,%d]", s.Name, s.Machine.Cores, MaxCores)
	}
	if s.Machine.FanFactor < 0 || s.Machine.FanFactor > 16 {
		return fmt.Errorf("scenario %q: fan factor %v outside [0,16]", s.Name, s.Machine.FanFactor)
	}
	if s.Machine.AmbientC < 0 || s.Machine.AmbientC > 60 {
		return fmt.Errorf("scenario %q: ambient %v°C outside [0,60]", s.Name, s.Machine.AmbientC)
	}
	if s.Machine.SMTContexts < 0 || s.Machine.SMTContexts > 2 {
		return fmt.Errorf("scenario %q: SMT contexts %d outside [0,2]", s.Name, s.Machine.SMTContexts)
	}
	if !machine.ValidIntegrator(s.Machine.Integrator) {
		return fmt.Errorf("scenario %q: unknown integrator %q (want %q or %q)",
			s.Name, s.Machine.Integrator, machine.IntegratorExact, machine.IntegratorLeap)
	}
	if !(s.DurationS > 0) || s.DurationS > MaxDurationS {
		return fmt.Errorf("scenario %q: duration %vs outside (0,%d]", s.Name, s.DurationS, MaxDurationS)
	}
	if s.WarmupFrac < 0 || s.WarmupFrac > 0.9 {
		return fmt.Errorf("scenario %q: warmup fraction %v outside [0,0.9]", s.Name, s.WarmupFrac)
	}
	if s.ViolationC < 0 || s.ViolationC > 150 {
		return fmt.Errorf("scenario %q: violation threshold %v°C outside [0,150]", s.Name, s.ViolationC)
	}
	if len(s.Workload) == 0 && s.Scheduler == nil {
		return fmt.Errorf("scenario %q: needs at least one workload component", s.Name)
	}
	if len(s.Workload) > MaxComponents {
		return fmt.Errorf("scenario %q: %d components exceeds %d", s.Name, len(s.Workload), MaxComponents)
	}
	webs := 0
	for i := range s.Workload {
		if err := s.Workload[i].validate(); err != nil {
			return fmt.Errorf("scenario %q component %d: %w", s.Name, i, err)
		}
		if s.Workload[i].Kind == KindWebserver {
			webs++
		}
	}
	if webs > 1 {
		return fmt.Errorf("scenario %q: at most one webserver component", s.Name)
	}
	if err := s.Policy.validate(); err != nil {
		return fmt.Errorf("scenario %q policy: %w", s.Name, err)
	}
	if s.Scheduler != nil {
		if err := s.Scheduler.validate(); err != nil {
			return fmt.Errorf("scenario %q scheduler: %w", s.Name, err)
		}
	}
	return nil
}

func (c *ComponentSpec) validate() error {
	if c.Threads < 0 || c.Threads > MaxThreads {
		return fmt.Errorf("threads %d outside [0,%d]", c.Threads, MaxThreads)
	}
	if c.PowerFactor < 0 || c.PowerFactor > 1.5 {
		return fmt.Errorf("power factor %v outside [0,1.5]", c.PowerFactor)
	}
	switch c.Kind {
	case KindBurn:
	case KindSpec:
		if _, err := workload.FindSpec(c.Benchmark); err != nil {
			return err
		}
	case KindPeriodic:
		if !(c.BurstS > 0) || c.BurstS > 3600 {
			return fmt.Errorf("periodic burst %vs outside (0,3600]", c.BurstS)
		}
		if !(c.PauseS > 0) || c.PauseS > 3600 {
			return fmt.Errorf("periodic pause %vs outside (0,3600]", c.PauseS)
		}
	case KindTrojan:
		if !(c.PeriodMS >= 0.1) || c.PeriodMS > 60000 {
			return fmt.Errorf("trojan period %vms outside [0.1,60000]", c.PeriodMS)
		}
		if !(c.Duty > 0) || c.Duty > 1 {
			return fmt.Errorf("trojan duty %v outside (0,1]", c.Duty)
		}
	case KindWebserver:
		if c.Connections < 0 || c.Connections > 10000 {
			return fmt.Errorf("connections %d outside [0,10000]", c.Connections)
		}
		if c.Workers < 0 || c.Workers > 512 {
			return fmt.Errorf("workers %d outside [0,512]", c.Workers)
		}
	default:
		return fmt.Errorf("unknown kind %q", c.Kind)
	}
	return c.Arrival.validate(c.Kind)
}

func (a *ArrivalSpec) validate(kind string) error {
	if (a.Pattern == ArrivalDiurnal || a.Pattern == ArrivalWindow) &&
		kind != KindBurn && kind != KindSpec {
		return fmt.Errorf("%s arrival only applies to burn/spec components, not %q", a.Pattern, kind)
	}
	return a.validateShape()
}

func (p *PolicySpec) validate() error {
	switch p.Kind {
	case "", PolicyNone:
	case PolicyDimetrodon:
		if !(p.P > 0) || p.P >= 1 {
			return fmt.Errorf("dimetrodon p %v outside (0,1)", p.P)
		}
		if !(p.LMS > 0) || p.LMS > 10000 {
			return fmt.Errorf("dimetrodon L %vms outside (0,10000]", p.LMS)
		}
	case PolicyVFS:
		if p.PState < 0 || p.PState > 32 {
			return fmt.Errorf("vfs P-state %d outside [0,32]", p.PState)
		}
	case PolicyP4TCC:
		if !(p.Duty > 0) || p.Duty > 1 {
			return fmt.Errorf("p4tcc duty %v outside (0,1]", p.Duty)
		}
	case PolicyAdaptive:
		if p.TargetC < 0 || p.TargetC > 150 {
			return fmt.Errorf("adaptive target %v°C outside [0,150]", p.TargetC)
		}
	default:
		return fmt.Errorf("unknown policy kind %q", p.Kind)
	}
	return nil
}
