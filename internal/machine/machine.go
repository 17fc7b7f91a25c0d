// Package machine assembles the simulated testbed: the paper's 1U rackmount
// server with a quad-core Xeon E5520, a three-layer RC thermal path
// (per-core junctions → package/spreader → heatsink → 25.2 °C ambient held by
// full-speed case fans), a clamp+multimeter power measurement chain, and the
// 4.4BSD-style scheduler. It owns the event loop: discrete scheduler events
// interleave with continuous thermal/energy integration.
package machine

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sensor"
	"repro/internal/simclock"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config describes a testbed instance. DefaultConfig returns the calibrated
// paper machine; tests and ablations override single fields.
type Config struct {
	Model *cpu.Model
	Sched sched.Config

	// Ambient is the thermostat setpoint (25.2 °C in §3.2).
	Ambient units.Celsius

	// RC thermal path. Resistances in K/W, capacitances in J/K.
	RJunctionPackage float64 // per-core junction → package spreader
	RPackageSink     float64 // package → heatsink
	RSinkAmbient     float64 // heatsink → ambient (fan-dependent)
	CJunction        float64
	CPackage         float64
	CSink            float64

	// FanFactor scales RSinkAmbient; 1.0 is the paper's full-speed fixed
	// fan. Larger values mean less airflow.
	FanFactor float64

	// HotspotFraction, when positive, adds a per-core hotspot node — the
	// small thermal mass of the busiest functional units (§2.1: "executing
	// an idle loop of nop equivalents allows many functional units within
	// the processor to cool"). The fraction of the core's power deposited
	// there concentrates; the rest enters the junction block. Zero (the
	// default) keeps the calibrated three-layer model.
	HotspotFraction float64
	// RHotspotJunction and CHotspot parameterise the hotspot node
	// (defaults give τ ≈ 2 ms and a few degrees of local rise).
	RHotspotJunction float64
	CHotspot         float64
	// SenseHotspot points the DTS observable and the temperature metrics
	// at the hotspot nodes instead of the junction blocks — the sensor-
	// placement sensitivity study (the real DTS sits at the hottest spot).
	SenseHotspot bool

	// ThermalStep caps the integration step.
	ThermalStep units.Time

	// Integrator selects how event-free spans are integrated:
	// IntegratorExact (the default) steps every ThermalStep and is
	// byte-identical to the historical kernel; IntegratorLeap detects that
	// the chip configuration is frozen across each span — the scheduler's
	// quiescence certificate — and replaces the k identical steps with the
	// O(log k) repeated-squaring propagator (tolerance-mode; see DESIGN.md
	// §10). An empty value resolves to exact. Leap engages only when
	// nothing observes intra-span state: the meter chain must be disabled
	// and per-step temperature tracing off, otherwise the machine falls
	// back to exact stepping.
	Integrator string

	// Idle C-states: what a core enters when it has nothing to run and
	// when Dimetrodon injects an idle quantum. Both default to C1E; the
	// C-state ablation sets InjectedIdle to C1Halt (a nop-loop idle on
	// hardware without low-power states, §2.1).
	NaturalIdle  cpu.CState
	InjectedIdle cpu.CState

	// SMTContexts is the number of hardware thread contexts per physical
	// core visible to the scheduler. The paper disabled SMT (§3.2: "to
	// cause the entire core to enter the C1E low power state we need to
	// halt all thread contexts on the core"); 1 reproduces that setup,
	// 2 enables the SMT extension studied by the smt package. A core
	// reaches C1E only when every context has parked there; a lone idle
	// context merely halts.
	SMTContexts int
	// SMTYield is each context's progress rate when SMT is enabled: two
	// saturated sibling contexts share execution resources, so each runs
	// slower than an exclusive context (total > 1). The model holds the
	// yield constant — symmetric saturated contexts, which is exact for
	// the all-cpuburn workload the SMT experiment uses.
	SMTYield float64
	// SMTSoloDynFraction is the fraction of a fully loaded core's dynamic
	// power drawn when only one context is active (SMT adds ~15-20 % to
	// core power; a lone cpuburn context still nearly saturates it).
	SMTSoloDynFraction float64

	Meter power.MeterConfig
	// RecordPower enables the meter's sample trace (Figure 1); energy
	// accounting is always on.
	RecordPower bool
	// TempSampleEvery controls the decimated junction-temperature trace
	// (Figure 2); zero disables the trace. Windowed temperature metrics
	// use exact integrals and do not depend on this.
	TempSampleEvery units.Time

	Seed uint64
}

// leapShortSpan is the longest quiescent window (in whole ThermalSteps)
// integrated by plain polynomial-decay steps on the linearisation memo
// instead of the propagator: below it the leap machinery's fixed per-window
// cost outweighs the matrix savings.
const leapShortSpan = 4

// Integrator modes.
const (
	// IntegratorExact integrates every event-free span step by step —
	// byte-identical to the historical kernel and to the committed
	// golden fixtures.
	IntegratorExact = "exact"
	// IntegratorLeap replaces provably power-quiescent step runs with the
	// repeated-squaring propagator; outputs track exact within the
	// controller tolerance (≪ the 0.05 °C harness band).
	IntegratorLeap = "leap"
)

// ValidIntegrator reports whether mode names an integrator ("" selects the
// default resolution).
func ValidIntegrator(mode string) bool {
	return mode == "" || mode == IntegratorExact || mode == IntegratorLeap
}

// DefaultConfig returns the calibrated testbed (see DESIGN.md §5).
func DefaultConfig() Config {
	return Config{
		Model:              cpu.NewXeonE5520(),
		Sched:              sched.DefaultConfig(),
		Ambient:            25.2,
		RJunctionPackage:   0.80,
		RPackageSink:       0.045,
		RSinkAmbient:       0.115,
		CJunction:          0.0375, // τ_junction ≈ 30 ms against the package
		CPackage:           45,
		CSink:              170,
		FanFactor:          1.0,
		ThermalStep:        2 * units.Millisecond,
		NaturalIdle:        cpu.C1E,
		InjectedIdle:       cpu.C1E,
		SMTContexts:        1,
		SMTYield:           0.62,
		SMTSoloDynFraction: 0.847,
		Meter:              power.DefaultMeterConfig(),
		RecordPower:        false,
		TempSampleEvery:    0,
		Seed:               1,
	}
}

// Machine is a running testbed instance.
type Machine struct {
	Clock    *simclock.Clock
	Chip     *cpu.Chip
	Net      *ThermalPath
	Sched    *sched.Scheduler
	Meter    *power.Meter
	Energy   *power.Accumulator
	Recorder *trace.Recorder
	RNG      *rng.Source

	cfg       Config
	sensors   []*sensor.DTS
	lastTemps []units.Celsius

	// SMT context tracking (len = cores × SMTContexts); single-context
	// machines bypass it entirely.
	ctxState []cpu.CState
	ctxPF    []float64

	// Exact per-core junction-temperature integrals (°C·s) and the busy/
	// injected-idle integral bookkeeping behind the experiment metrics.
	tempIntegral []float64
	nextTempSamp units.Time

	// leap is set when the resolved integrator is IntegratorLeap and no
	// intra-span observer (meter chain, temperature tracing) requires
	// step-by-step integration; leapSum is the per-core scratch the leap
	// window's discrete temperature sums land in.
	leap    bool
	leapSum []float64

	// Lazy thermal integration (leap mode): intFrom is the time up to
	// which the thermal state is settled; the event-free spans past it
	// stay pending while the chip's power model is provably unchanged
	// (Chip.TotalEpoch), so quantum expiries that re-dispatch the same
	// thread no longer cut quiescent windows. Pending spans settle at the
	// flush seams: a listener callback about to change the chip, a
	// temperature accessor, and RunUntil's exit.
	lazy     bool
	intFrom  units.Time
	intEpoch uint64

	// idle is the all-idle equilibrium the machine started from, kept for
	// IdleJunctionTemp.
	idle *idleSolution

	// rngDraws counts every Uint64 drawn from the machine's RNG tree (the
	// root and all Split descendants). A zero count after construction
	// proves a configuration's dynamics are seed-insensitive, which the
	// scenario engine uses to replicate one simulated result across
	// seeds.
	rngDraws uint64
}

// RNGDraws reports how many raw draws the machine's RNG tree has produced
// since construction finished (build-time seeding draws are excluded).
func (m *Machine) RNGDraws() uint64 { return m.rngDraws }

// New builds a machine from cfg. The thermal state starts at the all-idle
// equilibrium, as a real testbed does after sitting idle.
func New(cfg Config) *Machine {
	if cfg.Model == nil {
		cfg.Model = cpu.NewXeonE5520()
	}
	if cfg.FanFactor <= 0 {
		cfg.FanFactor = 1
	}
	if cfg.ThermalStep <= 0 {
		cfg.ThermalStep = DefaultConfig().ThermalStep
	}
	if cfg.HotspotFraction > 0 && cfg.ThermalStep > units.Millisecond {
		// Hotspot nodes have millisecond time constants; cap the
		// integration step accordingly.
		cfg.ThermalStep = units.Millisecond
	}
	if cfg.Integrator == "" {
		cfg.Integrator = IntegratorExact
	}
	if !ValidIntegrator(cfg.Integrator) {
		panic(fmt.Sprintf("machine: unknown integrator %q", cfg.Integrator))
	}
	m := &Machine{
		Clock:    &simclock.Clock{},
		Recorder: trace.NewRecorder(),
		Energy:   &power.Accumulator{},
		RNG:      rng.New(cfg.Seed),
		cfg:      cfg,
	}
	// Instrument before any Split so every derived substream inherits the
	// counter; the count is zeroed at the end of New so it reflects only
	// post-build dynamics.
	m.RNG.Instrument(&m.rngDraws)
	if cfg.SMTContexts < 1 {
		cfg.SMTContexts = 1
		m.cfg.SMTContexts = 1
	}
	m.Chip = cpu.NewChip(cfg.Model)
	m.Net = NewThermalPath(cfg)
	// Start from the idle equilibrium. A fresh chip idles every core in C1E
	// with unit leakage coupling, which is exactly the memoised idle solve;
	// on a miss it solves on this very path and chip before anything
	// touches them.
	m.idle = idleSolve(&m.cfg, 1, m.Net, m.Chip)
	for i, t := range m.idle.temps {
		m.Net.Net.SetTemp(thermal.NodeID(i), t)
	}
	schedCfg := cfg.Sched
	schedCfg.Cores = cfg.Model.NumCores * cfg.SMTContexts
	if cfg.SMTContexts > 1 {
		n := schedCfg.Cores
		m.ctxState = make([]cpu.CState, n)
		m.ctxPF = make([]float64, n)
		for i := range m.ctxState {
			m.ctxState[i] = cfg.NaturalIdle
		}
	}
	m.Sched = sched.New(m.Clock, schedCfg, m, m)
	var powerSeries *trace.Series
	if cfg.RecordPower {
		powerSeries = m.Recorder.Series("package.power", "W")
	}
	m.Meter = power.NewMeter(cfg.Meter, m.RNG.Split(), powerSeries)
	n := cfg.Model.NumCores
	m.sensors = make([]*sensor.DTS, n)
	for i := range m.sensors {
		m.sensors[i] = sensor.NewCoretemp()
	}
	m.tempIntegral = make([]float64, n)
	m.lastTemps = make([]units.Celsius, n)
	// Leap integration requires that nothing observes the state between
	// the steps a window replaces: the 3 kHz meter chain and the decimated
	// temperature traces both sample inside spans, so either forces the
	// exact step loop.
	m.leap = m.cfg.Integrator == IntegratorLeap &&
		m.cfg.Meter.Disabled && !m.cfg.RecordPower && m.cfg.TempSampleEvery <= 0
	if m.leap {
		m.leapSum = make([]float64, len(m.Net.sense))
		// Lazy window merging relies on the listener seams owning every
		// chip mutation; the SMT context-derivation path mutates from
		// updatePhysical with interleaved state, so it settles per span.
		m.lazy = m.cfg.SMTContexts <= 1
		m.intEpoch = m.Chip.TotalEpoch()
	}
	// Construction consumed draws only for substream seeding; zero the
	// counter so RNGDraws reflects dynamics alone.
	m.rngDraws = 0
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// LeapActive reports whether event-free spans integrate through the
// quiescence-leaping propagator (the resolved integrator is leap and no
// intra-span observer forced the exact loop).
func (m *Machine) LeapActive() bool { return m.leap }

// --- sched.Listener / sched.RateProvider ---

// CoreRunning implements sched.Listener: drive the chip's C-states from
// scheduler occupancy. With SMT the scheduler's core index is a hardware
// context; the physical core's state is derived from both siblings.
func (m *Machine) CoreRunning(core int, t *sched.Thread) {
	if m.cfg.SMTContexts <= 1 {
		if m.lazy && m.Chip.ActiveChanges(core, t.PowerFactor) {
			m.flushThermal(m.Clock.Now())
		}
		m.Chip.SetActive(core, t.PowerFactor)
		return
	}
	m.ctxState[core] = cpu.C0
	m.ctxPF[core] = t.PowerFactor
	m.updatePhysical(core / m.cfg.SMTContexts)
}

// CoreIdle implements sched.Listener.
func (m *Machine) CoreIdle(core int, injected bool) {
	state := m.cfg.NaturalIdle
	if injected {
		state = m.cfg.InjectedIdle
	}
	if m.cfg.SMTContexts <= 1 {
		if m.lazy && m.Chip.IdleChanges(core, state) {
			m.flushThermal(m.Clock.Now())
		}
		m.Chip.SetIdle(core, state)
		return
	}
	m.ctxState[core] = state
	m.ctxPF[core] = 0
	m.updatePhysical(core / m.cfg.SMTContexts)
}

// updatePhysical derives a physical core's C-state and activity factor from
// its hardware contexts: any active context keeps the core in C0 (a lone
// context drawing SMTSoloDynFraction of the fully loaded dynamic power); the
// core reaches C1E only when every context has parked in C1E, otherwise an
// idle mix merely halts (§3.2).
func (m *Machine) updatePhysical(phys int) {
	n := m.cfg.SMTContexts
	base := phys * n
	var maxPF, minPF float64
	actives := 0
	allC1E := true
	for i := base; i < base+n; i++ {
		if m.ctxState[i] == cpu.C0 {
			actives++
			pf := m.ctxPF[i]
			if pf >= maxPF {
				minPF = maxPF
				maxPF = pf
			} else if pf > minPF {
				minPF = pf
			}
			allC1E = false
		} else if m.ctxState[i] != cpu.C1E {
			allC1E = false
		}
	}
	switch {
	case actives > 0:
		// Normalise so two fully loaded contexts draw the calibrated
		// CoreDynamicMax: pf = (max + w·min)/(1 + w) with the weight
		// chosen so a lone context draws SMTSoloDynFraction.
		w := 1/m.cfg.SMTSoloDynFraction - 1
		pf := (maxPF + w*minPF) / (1 + w)
		m.Chip.SetActive(phys, pf)
	case allC1E:
		m.Chip.SetIdle(phys, cpu.C1E)
	default:
		m.Chip.SetIdle(phys, cpu.C1Halt)
	}
}

// ProgressRate implements sched.RateProvider: the chip's DVFS/TCC rate,
// scaled by the SMT yield when contexts share a core.
func (m *Machine) ProgressRate() float64 {
	rate := m.Chip.ProgressRate()
	if m.cfg.SMTContexts > 1 {
		rate *= m.cfg.SMTYield
	}
	return rate
}

// ThreadExited implements sched.Listener.
func (m *Machine) ThreadExited(t *sched.Thread) {}

// --- time ---

// Now returns the current virtual time.
func (m *Machine) Now() units.Time { return m.Clock.Now() }

// RunUntil advances the simulation to absolute virtual time t, interleaving
// scheduler events with thermal and energy integration.
func (m *Machine) RunUntil(t units.Time) {
	if t < m.Clock.Now() {
		panic(fmt.Sprintf("machine: RunUntil(%v) before now (%v)", t, m.Clock.Now()))
	}
	m.Clock.AdvanceTo(t, m.integrate)
	if m.lazy {
		// Settle the pending window so callers observe fully integrated
		// state between runs.
		m.flushThermal(t)
	}
}

// RunFor advances the simulation by span dt.
func (m *Machine) RunFor(dt units.Time) { m.RunUntil(m.Clock.Now() + dt) }

// integrate advances the continuous state (temperatures, energy, meters)
// across an event-free span. The span is the machine's quiescence window:
// the clock only invokes the hook between discrete events, and every chip
// reconfiguration (C-states, activity factors, DVFS, TCC) happens inside an
// event callback, so the power model is provably frozen from `from` to `to`.
// (Sched.NextEventHorizon states the scheduler's share of that invariant as
// a queryable, unit-tested certificate; the hot path needs no call — the
// guarantee is structural.) The leap integrator exploits exactly that
// window.
func (m *Machine) integrate(from, to units.Time) {
	if m.lazy {
		// The span joins the pending quiescent window. While the chip's
		// power model is unchanged (same TotalEpoch), settling can wait:
		// the window keeps growing across events that altered nothing —
		// quantum expiries re-dispatching the same thread chief among
		// them. A changed epoch means some writer bypassed the flush
		// seams (no in-tree writer does); settle conservatively under
		// the current configuration rather than lose the span.
		if m.Chip.TotalEpoch() != m.intEpoch {
			m.flushThermal(from)
		}
		return
	}
	if m.leap {
		m.settleSpan(from, to)
		return
	}
	span := to - from
	t := from
	for span > 0 {
		dt := span
		if dt > m.cfg.ThermalStep {
			dt = m.cfg.ThermalStep
		}
		total := m.Net.StepWithChip(dt, m.Chip)
		m.Energy.Add(total, dt)
		m.Meter.Observe(t, t+dt, total)
		temps := m.Net.Junctions(m.lastTemps)
		for i, tj := range temps {
			m.tempIntegral[i] += float64(tj) * dt.Seconds()
		}
		t += dt
		span -= dt
		m.sampleTemps(t, temps)
	}
}

// settleSpan integrates a power-quiescent span through the leap machinery:
// whole ThermalStep multiples leap in O(log k) propagator chunks; the
// event-aligned sub-step remainder then advances on the window's linearised
// heat inputs — no further model evaluation.
func (m *Machine) settleSpan(from, to units.Time) {
	span := to - from
	step := m.cfg.ThermalStep
	if k := int(span / step); k > leapShortSpan {
		for i := range m.leapSum {
			m.leapSum[i] = 0
		}
		powSum := m.Net.LeapWithChip(k, step, m.Chip, m.leapSum)
		window := units.Time(k) * step
		m.Energy.Add(units.Watts(powSum/float64(k)), window)
		dts := step.Seconds()
		for i, s := range m.leapSum {
			m.tempIntegral[i] += s * dts
		}
		span -= window
	}
	// Short windows and the event-aligned remainder: polynomial-decay
	// steps on the per-core linearisation memo — no exponentials, no
	// decay-cache traffic, no matrices. Step sizes here are essentially
	// unique (event times are nanosecond-grained), which is exactly the
	// pattern the exact kernel's caches cannot serve.
	for span > 0 {
		dt := span
		if dt > step {
			dt = step
		}
		total := m.Net.StepPolyMemo(dt, m.Chip)
		m.Energy.Add(total, dt)
		temps := m.Net.Junctions(m.lastTemps)
		for i, tj := range temps {
			m.tempIntegral[i] += float64(tj) * dt.Seconds()
		}
		span -= dt
	}
}

// flushThermal settles the pending quiescent window up to now. It is called
// from the seams where staleness would become observable or incorrect: a
// listener callback about to change the chip's power model, the temperature
// accessors, and RunUntil's exit.
func (m *Machine) flushThermal(now units.Time) {
	if now > m.intFrom {
		m.settleSpan(m.intFrom, now)
	}
	m.intFrom = now
	m.intEpoch = m.Chip.TotalEpoch()
}

func (m *Machine) sampleTemps(now units.Time, temps []units.Celsius) {
	if m.cfg.TempSampleEvery <= 0 || now < m.nextTempSamp {
		return
	}
	for i, tj := range temps {
		s := m.Recorder.Series(fmt.Sprintf("core%d.temp", i), "C")
		s.Append(now, float64(tj))
		d := m.Recorder.Series(fmt.Sprintf("core%d.dts", i), "C")
		d.Append(now, float64(m.sensors[i].Read(now, tj)))
	}
	m.nextTempSamp = now + m.cfg.TempSampleEvery
}

// --- metrics ---

// JunctionTemps returns the current true junction temperatures.
func (m *Machine) JunctionTemps() []units.Celsius {
	if m.lazy {
		m.flushThermal(m.Clock.Now())
	}
	return m.Net.Junctions(nil)
}

// MeanJunctionIntegral returns the across-core mean of the exact junction
// temperature integrals (°C·s since t=0). Experiments snapshot it at window
// boundaries to compute exact time-weighted mean temperatures.
func (m *Machine) MeanJunctionIntegral() float64 {
	if m.lazy {
		m.flushThermal(m.Clock.Now())
	}
	var sum float64
	for _, v := range m.tempIntegral {
		sum += v
	}
	return sum / float64(len(m.tempIntegral))
}

// IdleJunctionTemp returns the all-idle equilibrium junction temperature of
// this machine configuration — the paper's "idle temperature" baseline.
// At the unit leakage coupling it is the equilibrium the machine started
// from; another coupling (the leakage ablation) is solved on a scratch path
// and memoised per thermally-relevant configuration (see idleSolve). The
// running state is not disturbed.
func (m *Machine) IdleJunctionTemp() units.Celsius {
	if c := m.Chip.LeakageTempCoupling; c != 1 {
		return idleSolve(&m.cfg, c, nil, nil).mean
	}
	return m.idle.mean
}

// TotalWorkDone returns the summed completed work (reference-seconds) across
// all threads, flushing in-progress accounting first.
func (m *Machine) TotalWorkDone() float64 {
	m.Sched.ChargeAll()
	var sum float64
	for _, t := range m.Sched.Threads() {
		sum += t.WorkDone
	}
	return sum
}

// ProcessWorkDone returns the summed completed work of one process's threads.
func (m *Machine) ProcessWorkDone(pid int) float64 {
	m.Sched.ChargeAll()
	var sum float64
	for _, t := range m.Sched.Threads() {
		if t.ProcessID == pid {
			sum += t.WorkDone
		}
	}
	return sum
}
