package scenario

import (
	"context"
	"fmt"

	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/webserver"
)

// Phase profiler accumulators for the fleet engine. They wrap the
// coarse phases around the thermal kernel — never the kernel's inner step —
// so profiling on or off never touches the hot loop's timings, and the
// disabled cost is one atomic load per phase entry.
var (
	phaseCompile   = obs.RegisterPhase("scenario.compile")
	phaseWarmup    = obs.RegisterPhase("scenario.warmup")
	phaseStep      = obs.RegisterPhase("scenario.step")
	phaseAggregate = obs.RegisterPhase("scenario.aggregate")
)

// traceMachineSpans bounds how many fleet members get their own trace span:
// the first 64 machines tell the story; a million-machine fleet must not
// balloon (or rotate out) the job's span budget.
const traceMachineSpans = 64

// MachineResult is one fleet member's measured outcome over the post-warmup
// window. Temperatures are °C; rates are per second of window.
type MachineResult struct {
	Index     int
	Seed      uint64
	FanFactor float64

	MeanJunction float64
	PeakJunction float64
	IdleTemp     float64
	WorkRate     float64
	MeanPower    float64

	// Injection overhead: injected idle quanta and seconds, against the
	// busy seconds, summed across scheduler cores over the window.
	Injections    int
	InjectedIdleS float64
	BusyS         float64

	// Thermal violations: time any junction sat above the threshold, and
	// the number of distinct excursions (rising edges), both sampled at
	// the metric tick.
	ViolationS float64
	Violations int

	// TM1 backstop activity when armed.
	TM1Trips      int
	TM1ThrottledS float64

	// Web carries the closed-loop QoS stats when the mix includes the
	// webserver component.
	Web *webserver.Stats
}

// OverheadFraction returns injected idle time as a fraction of occupied
// (busy + injected) core time — the per-machine idle-injection overhead.
func (r MachineResult) OverheadFraction() float64 {
	occ := r.BusyS + r.InjectedIdleS
	if occ <= 0 {
		return 0
	}
	return r.InjectedIdleS / occ
}

// RunOptions customises a fleet run beyond the spec itself. The zero value
// reproduces Run exactly; every field is optional.
type RunOptions struct {
	// Context, when non-nil, cancels the sweep: workers stop claiming new
	// machines and in-flight machines abandon their tick loop at the next
	// metric tick. A cancelled run returns ctx's error.
	Context context.Context
	// OnMachine, when non-nil, receives each fleet member's result as it
	// completes. Machines run concurrently across the worker pool, so calls
	// arrive from multiple goroutines in nondeterministic order; the final
	// Result slice stays index-ordered regardless.
	OnMachine func(MachineResult)
	// OnTelemetry, when non-nil, receives per-machine samples every
	// TelemetryEvery metric ticks — the streaming tap the service daemon
	// feeds NDJSON/SSE subscribers from. Calls arrive concurrently, like
	// OnMachine.
	OnTelemetry func(MachineSample)
	// TelemetryEvery is the OnTelemetry cadence in metric ticks (100 ms of
	// virtual time each); 0 disables sampling.
	TelemetryEvery int
	// Completed carries per-machine results recovered from a checkpoint of an
	// earlier, interrupted run of the same spec at the same scale. Machines
	// whose Index appears here are not re-simulated: the recovered result is
	// used verbatim, OnMachine and OnTelemetry do not re-fire for them, and
	// only the remaining machines run. This is sound because fleet members
	// are independent deterministic functions of their own trial — a result
	// computed before a crash is bit-identical to one computed after it.
	Completed []MachineResult
	// Trace, when non-nil, records engine spans (compile, step, aggregate,
	// and the first machines' individual runs) into the job's tracer. Purely
	// observational: spans read the wall clock and already-computed values,
	// never simulation state, so traced output is byte-identical to untraced.
	Trace *obs.Tracer
	// OnState, when non-nil, receives each completed machine's final thermal
	// state through the pure machine.Checkpoint() observer — the tap the
	// daemon's fleet snapshot reads per-machine temperatures from. Capture is
	// a pure observation (no accounting flush), so a run with OnState set
	// stays byte-identical to one without. Calls arrive concurrently, like
	// OnMachine; recovered (Completed) machines do not re-fire.
	OnState func(index int, st machine.State)
	// Engine is the integrator used when the spec names none (leap when
	// both are empty) and the worker-pool size the fleet fans out across.
	Engine engine.Config
	// PropStore, when non-nil, is the leap propagator store every machine
	// of the run shares — a daemon passes one store to all its runs so each
	// propagator is built once per topology for its whole lifetime. nil
	// gives the run a store of its own. Stored propagators are bit-identical
	// to privately built ones, so the choice never changes output.
	PropStore *thermal.PropStore
}

// MachineSample is one in-run telemetry point from a fleet member. It is
// built exclusively from observables the metric loop already reads every
// tick (junction temperatures, the injection counter), never from
// measurement flushes the silent path would not perform — so a streamed run
// stays byte-identical to an unobserved one. The daemon's determinism tests
// pin exactly that.
type MachineSample struct {
	Index int     `json:"index"`
	NowS  float64 `json:"now_s"`

	MeanJunctionC float64 `json:"mean_junction_c"`
	MaxJunctionC  float64 `json:"max_junction_c"`
	// PeakJunctionC is the running post-warmup peak so far.
	PeakJunctionC float64 `json:"peak_junction_c"`
	// Injections is the cumulative injected-quantum count.
	Injections int `json:"injections"`
	// ViolationS is the accumulated post-warmup violation time so far.
	ViolationS float64 `json:"violation_s"`
}

// measure drives an already-built machine through the trial's warmup and
// measurement window and collects the per-machine result. It is the one
// measurement loop every fleet member runs through.
func measure(m *machine.Machine, tm1 *dtm.TM1, srv *webserver.Server, t MachineTrial, opts RunOptions) (MachineResult, error) {
	wt := phaseWarmup.Start()
	m.RunFor(t.Warmup)
	phaseWarmup.Stop(wt)
	cores := m.Config().Model.NumCores * m.Config().SMTContexts
	var busy0, inj0 units.Time
	for c := 0; c < cores; c++ {
		b, inj := m.Sched.Core(c)
		busy0 += b
		inj0 += inj
	}
	injN0 := m.Sched.TotalInjections
	i0 := m.MeanJunctionIntegral()
	w0 := m.TotalWorkDone()
	e0 := m.Energy.Energy()
	t0 := m.Now()
	var tm1Trips0 int
	var tm1Throttled0 units.Time
	if tm1 != nil {
		tm1Trips0 = tm1.Engagements
		tm1Throttled0 = tm1.Throttled(t0)
	}

	violC := units.Celsius(t.Spec.violationC())
	res := MachineResult{Index: t.Index, Seed: t.Seed, FanFactor: t.FanFactor}
	over := false
	ticks := 0
	var temps []units.Celsius
	// Cancellation is polled on the context's Done channel, fetched once:
	// Context.Err takes the context's mutex, which every worker would
	// otherwise contend on every tick. A nil channel never fires.
	var done <-chan struct{}
	if opts.Context != nil {
		done = opts.Context.Done()
	}
	st := phaseStep.Start()
	for m.Now() < t.Duration {
		select {
		case <-done:
			return MachineResult{}, opts.Context.Err()
		default:
		}
		step := t.Tick
		if rem := t.Duration - m.Now(); rem < step {
			step = rem
		}
		m.RunFor(step)
		ticks++
		temps = m.Net.Junctions(temps)
		hot := false
		for _, tj := range temps {
			if float64(tj) > res.PeakJunction {
				res.PeakJunction = float64(tj)
			}
			if tj >= violC {
				hot = true
			}
		}
		if hot {
			res.ViolationS += step.Seconds()
			if !over {
				res.Violations++
			}
		}
		over = hot
		if opts.OnTelemetry != nil && opts.TelemetryEvery > 0 && ticks%opts.TelemetryEvery == 0 {
			var sum, max float64
			for _, tj := range temps {
				v := float64(tj)
				sum += v
				if v > max {
					max = v
				}
			}
			opts.OnTelemetry(MachineSample{
				Index:         t.Index,
				NowS:          m.Now().Seconds(),
				MeanJunctionC: sum / float64(len(temps)),
				MaxJunctionC:  max,
				PeakJunctionC: res.PeakJunction,
				Injections:    m.Sched.TotalInjections,
				ViolationS:    res.ViolationS,
			})
		}
	}
	phaseStep.StopN(st, int64(ticks))

	secs := (m.Now() - t0).Seconds()
	res.MeanJunction = (m.MeanJunctionIntegral() - i0) / secs
	res.IdleTemp = float64(m.IdleJunctionTemp())
	res.WorkRate = (m.TotalWorkDone() - w0) / secs
	res.MeanPower = float64(m.Energy.Energy()-e0) / secs
	var busy1, inj1 units.Time
	for c := 0; c < cores; c++ {
		b, inj := m.Sched.Core(c)
		busy1 += b
		inj1 += inj
	}
	res.BusyS = (busy1 - busy0).Seconds()
	res.InjectedIdleS = (inj1 - inj0).Seconds()
	res.Injections = m.Sched.TotalInjections - injN0
	if tm1 != nil {
		res.TM1Trips = tm1.Engagements - tm1Trips0
		res.TM1ThrottledS = (tm1.Throttled(m.Now()) - tm1Throttled0).Seconds()
	}
	if srv != nil {
		stats := srv.Snapshot(m.Now())
		res.Web = &stats
	}
	if opts.OnState != nil {
		opts.OnState(t.Index, m.Checkpoint())
	}
	return res, nil
}

// Run executes the scenario's whole fleet across the runner pool and
// aggregates the per-machine results. Output is byte-identical at any -jobs
// setting: each machine is a deterministic function of its trial alone.
func Run(spec *Spec, scale float64) (*Result, error) {
	return RunOpts(spec, scale, RunOptions{})
}

// RunOpts is Run with per-run options: context cancellation and the
// streaming telemetry hooks the service daemon uses. The zero options value
// is exactly Run.
func RunOpts(spec *Spec, scale float64, opts RunOptions) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Scheduler != nil {
		// A scheduler block makes machines interact (routed jobs,
		// migration); the independent per-machine sharding here would
		// silently drop that coupling. The cross-machine engine lives in
		// internal/fleetsched; dimctl and the top-level API route there.
		return nil, fmt.Errorf("scenario %q: has a scheduler block; run it through the fleetsched engine (dimctl sched run %s)", spec.Name, spec.Name)
	}
	trials := compile(spec, scale, opts)
	machines := make([]MachineResult, len(trials))
	recovered := make([]bool, len(trials))
	for _, r := range opts.Completed {
		if r.Index < 0 || r.Index >= len(trials) {
			return nil, fmt.Errorf("scenario %q: checkpoint carries machine %d but the spec compiles %d machines at scale %g", spec.Name, r.Index, len(trials), scale)
		}
		machines[r.Index], recovered[r.Index] = r, true
	}
	var todo []MachineTrial
	for _, t := range trials {
		if !recovered[t.Index] {
			todo = append(todo, t)
		}
	}
	ran, err := runTrials(spec, todo, opts)
	if err != nil {
		return nil, err
	}
	for k, t := range todo {
		machines[t.Index] = ran[k]
	}
	res := &Result{
		Spec:     spec,
		Scale:    scale,
		Duration: trials[0].Duration,
		Warmup:   trials[0].Warmup,
		Machines: machines,
	}
	spAgg := opts.Trace.Start("aggregate", "scenario", 0)
	res.Fleet = aggregate(spec, machines)
	spAgg.End()
	return res, nil
}

// compile resolves a validated spec's fleet under the run's engine, inside
// the compile phase and trace span.
func compile(spec *Spec, scale float64, opts RunOptions) []MachineTrial {
	sp := opts.Trace.Start("compile", "scenario", 0)
	ct := phaseCompile.Start()
	trials := spec.CompileFor(scale, opts.Engine.Integrator)
	phaseCompile.Stop(ct)
	sp.EndArgs(map[string]any{"machines": len(trials)})
	return trials
}

// RunByName looks the scenario up in the registry and runs it under the
// given engine.
func RunByName(name string, scale float64, ec engine.Config) (*Result, error) {
	spec, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q", name)
	}
	return RunOpts(spec, scale, RunOptions{Engine: ec})
}
