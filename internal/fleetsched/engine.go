package fleetsched

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/webserver"
	"repro/internal/workload"
)

// traceRoundSpans bounds per-round trace spans: early rounds show the
// dispatch/advance cadence; ten thousand more would only rotate the span
// budget.
const traceRoundSpans = 64

// ewmaAlpha weights the newest round's hottest-junction reading in the
// per-machine EWMA the headroom policy consumes. 0.3 remembers roughly the
// last three rounds — long enough to smooth injection sawtooth, short enough
// to track a genuine heat-up.
const ewmaAlpha = 0.3

// jobPIDBase offsets scheduled-job process IDs past the static workload
// components' (which use their component index).
const jobPIDBase = 1000

// dispatchSeedSalt decorrelates the dispatcher's RNG root (arrival streams,
// random placement) from the machine-identity seeds derived from the same
// scenario base seed.
const dispatchSeedSalt = 0xd15c_a7c4_f1ee_75ed

// node is one fleet member inside the engine: the built machine plus the
// engine-side accounting no other worker may touch. During the parallel
// phase of a round exactly one runner worker owns the node; between rounds
// the single-threaded dispatcher owns all of them.
type node struct {
	idx   int
	trial scenario.MachineTrial
	m     *machine.Machine
	tm1   *dtm.TM1
	srv   *webserver.Server

	temps []units.Celsius

	// Violation accounting over the post-warmup window.
	measuring  bool
	over       bool
	peak       float64
	violationS float64
	violations int

	// Window-start snapshots (taken at the first round boundary past the
	// warmup, mirroring the unscheduled per-machine path).
	t0            units.Time
	i0, w0        float64
	e0            units.Joules
	busy0S, inj0S float64
	injN0         int
	tm1Trips0     int
	tm1Throttled0 units.Time

	// Barrier telemetry and derived placement signals.
	tel     machine.Telemetry
	ewma    float64
	injFrac float64
	// state is the machine's checkpoint, refilled at each digest barrier.
	state machine.State

	// Scheduled-job state.
	jobs         []*Job
	pendingWorkS float64
	placed       int
	completed    int
	migratedIn   int
	migratedOut  int
}

// buildNode materialises fleet member i and takes its t=0 telemetry.
func buildNode(t scenario.MachineTrial) (*node, error) {
	m, tm1, srv, err := t.Build()
	if err != nil {
		return nil, err
	}
	n := &node{idx: t.Index, trial: t, m: m, tm1: tm1, srv: srv}
	n.tel = m.Telemetry()
	n.ewma = n.tel.MaxJunctionC
	return n, nil
}

// advance runs the node's machine to the absolute virtual time `to`,
// sampling violations at the metric tick, then refreshes barrier telemetry,
// placement signals and job completions. It runs inside a runner worker and
// touches only this node.
func (n *node) advance(to units.Time, violC units.Celsius) {
	for n.m.Now() < to {
		step := scenario.MetricTick
		if rem := to - n.m.Now(); rem < step {
			step = rem
		}
		n.m.RunFor(step)
		n.temps = n.m.Net.Junctions(n.temps)
		hot := false
		for _, tj := range n.temps {
			if n.measuring && float64(tj) > n.peak {
				n.peak = float64(tj)
			}
			if tj >= violC {
				hot = true
			}
		}
		if n.measuring {
			if hot {
				n.violationS += step.Seconds()
				if !n.over {
					n.violations++
				}
			}
		}
		// Track the edge through warmup too, so an excursion straddling
		// the window start is not double-counted as a fresh rising edge.
		n.over = hot
	}

	prev := n.tel
	n.tel = n.m.Telemetry()
	occ := (n.tel.BusyS - prev.BusyS) + (n.tel.InjectedIdleS - prev.InjectedIdleS)
	if occ > 0 {
		n.injFrac = (n.tel.InjectedIdleS - prev.InjectedIdleS) / occ
	} else {
		n.injFrac = 0
	}
	n.ewma = ewmaAlpha*n.tel.MaxJunctionC + (1-ewmaAlpha)*n.ewma

	n.pendingWorkS = 0
	for _, j := range n.jobs {
		if j.done {
			continue
		}
		finished := true
		var doneAt units.Time
		for _, th := range j.threads {
			if !th.Exited() {
				finished = false
				break
			}
			if th.ExitedAt > doneAt {
				doneAt = th.ExitedAt
			}
		}
		if finished {
			j.done = true
			j.DoneAt = doneAt
			n.completed++
			continue
		}
		n.pendingWorkS += j.remaining()
	}
}

// snapshotWindow records the measurement-window baselines at the current
// barrier (telemetry is fresh). Mirrors the unscheduled path's post-warmup
// snapshot.
func (n *node) snapshotWindow() {
	n.measuring = true
	n.t0 = n.m.Now()
	n.i0 = n.m.MeanJunctionIntegral()
	n.w0 = n.m.TotalWorkDone()
	n.e0 = n.m.Energy.Energy()
	n.busy0S = n.tel.BusyS
	n.inj0S = n.tel.InjectedIdleS
	n.injN0 = n.tel.Injections
	if n.tm1 != nil {
		n.tm1Trips0 = n.tm1.Engagements
		n.tm1Throttled0 = n.tm1.Throttled(n.t0)
	}
}

// view renders the node as a placement candidate.
func (n *node) view(violC float64) MachineView {
	resident := 0
	for _, j := range n.jobs {
		if !j.done {
			resident++
		}
	}
	cores := n.m.SchedCores()
	return MachineView{
		Index:         n.idx,
		Cores:         cores,
		Load:          float64(n.tel.LiveThreads) / float64(cores),
		ResidentJobs:  resident,
		PendingWorkS:  n.pendingWorkS,
		MaxJunctionC:  n.tel.MaxJunctionC,
		EWMAJunctionC: n.ewma,
		InjectionFrac: n.injFrac,
		ViolationC:    violC,
	}
}

// spawnJob admits the job's threads on this node, each with the given work
// target (full WorkS on first dispatch, carried-over remainders on
// migration), and records the targets so later remaining-work measurements
// are against what was actually assigned here.
func (n *node) spawnJob(j *Job, works []float64) {
	j.threads = j.threads[:0]
	j.assigned = append(j.assigned[:0], works...)
	for i, w := range works {
		name := fmt.Sprintf("job%d-%d", j.ID, i)
		if j.Migrations > 0 {
			name = fmt.Sprintf("job%d.m%d-%d", j.ID, j.Migrations, i)
		}
		th := n.m.Admit(workload.FiniteBurn(w), sched.SpawnConfig{
			Name:        name,
			ProcessID:   jobPIDBase + j.ID,
			PowerFactor: j.PowerFactor,
		})
		j.threads = append(j.threads, th)
	}
	j.Machine = n.idx
	n.jobs = append(n.jobs, j)
}

// Run executes the scheduled scenario under the named placement policy (empty
// selects the spec's default, then coolest-first). The output is
// byte-identical at any -jobs setting: all cross-machine decisions happen at
// single-threaded round barriers, and machines advance between barriers as
// independent deterministic functions of their own state.
func Run(spec *scenario.Spec, policyName string, scale float64) (*Result, error) {
	return RunOpts(spec, policyName, scale, Options{})
}

// Options customises a scheduled run beyond the spec: context cancellation
// and the round-barrier telemetry hook the service daemon streams from. The
// zero value reproduces Run exactly.
type Options struct {
	// Context, when non-nil, cancels the run at the next round barrier (and
	// stops workers claiming further machines inside a round's advance
	// phase). A cancelled run returns ctx's error.
	Context context.Context
	// OnRound, when non-nil, is called at every round barrier — from the
	// single-threaded dispatcher, so calls are strictly ordered — with the
	// fleet's dispatcher-facing telemetry after that round's migrations and
	// placements.
	OnRound func(RoundTelemetry)

	// CheckpointEvery, when positive, captures a Checkpoint every that many
	// round barriers (round 0, CheckpointEvery, 2×CheckpointEvery, …) and
	// hands it to OnCheckpoint. Capture is perturbation-free — the run's
	// results are byte-identical with checkpointing on or off — because the
	// barrier has already flushed every machine's lazy thermal window and
	// scheduler accounting. 0 disables capture.
	CheckpointEvery int
	// OnCheckpoint, when non-nil, receives each captured Checkpoint from the
	// single-threaded dispatcher. The daemon persists these so a crashed job
	// can resume.
	OnCheckpoint func(Checkpoint)

	// Resume, when non-nil, replays the run silently up to and including the
	// checkpoint's round barrier — OnRound and OnCheckpoint are suppressed
	// for the replayed prefix (subscribers already saw those rounds before
	// the crash); context cancellation still applies — then verifies the
	// replayed fleet's digest against the checkpoint and errors on any
	// divergence. Past the barrier the run continues normally: telemetry
	// resumes at round Resume.Round+1 and checkpointing resumes on the
	// CheckpointEvery cadence. The final Result is byte-identical to an
	// uninterrupted run's — the digest check proves it rather than assuming
	// it.
	Resume *Checkpoint

	// Trace, when non-nil, records engine spans (build, the first rounds'
	// advances, aggregate) into the job's tracer. Purely observational: spans
	// read the wall clock and already-computed values, never simulation
	// state, so traced output is byte-identical to untraced.
	Trace *obs.Tracer

	// Engine is the integrator used when the spec names none (leap when
	// both are empty) and the worker-pool size each round fans out across.
	Engine engine.Config
}

// RoundTelemetry is one round barrier's fleet snapshot: what the dispatcher
// itself sees when it ranks machines. Counters are cumulative from t=0.
type RoundTelemetry struct {
	Round int     `json:"round"`
	NowS  float64 `json:"now_s"`

	JobsArrived    int `json:"jobs_arrived"`
	JobsDispatched int `json:"jobs_dispatched"`
	JobsCompleted  int `json:"jobs_completed"`
	Migrations     int `json:"migrations"`

	// PendingWorkS is the remaining scheduled-job work fleet-wide.
	PendingWorkS float64 `json:"pending_work_s"`
	// MaxJunctionC is the hottest junction across the fleet at the barrier;
	// HottestMachine is its fleet index. MeanJunctionC averages the
	// per-machine mean junction temperatures.
	MaxJunctionC   float64 `json:"max_junction_c"`
	MeanJunctionC  float64 `json:"mean_junction_c"`
	HottestMachine int     `json:"hottest_machine"`
	// InjectedIdleS sums the fleet's cumulative injected idle seconds.
	InjectedIdleS float64 `json:"injected_idle_s"`
	// WorkDone sums the fleet's cumulative completed work (reference
	// seconds) and EnergyJ its cumulative package energy — subscribers
	// difference successive rounds into work-rate and mean-power gauges.
	WorkDone float64 `json:"work_done"`
	EnergyJ  float64 `json:"energy_j"`
}

// roundTelemetry folds the nodes' barrier telemetry into one fleet snapshot.
func roundTelemetry(round int, now units.Time, nodes []*node, cursor, dispatched, migrations int) RoundTelemetry {
	rt := RoundTelemetry{
		Round:          round,
		NowS:           now.Seconds(),
		JobsArrived:    cursor,
		JobsDispatched: dispatched,
		Migrations:     migrations,
		HottestMachine: -1,
	}
	var meanSum float64
	for _, n := range nodes {
		rt.JobsCompleted += n.completed
		rt.PendingWorkS += n.pendingWorkS
		rt.InjectedIdleS += n.tel.InjectedIdleS
		rt.WorkDone += n.tel.WorkDone
		rt.EnergyJ += n.tel.EnergyJ
		meanSum += n.tel.MeanJunctionC
		if n.tel.MaxJunctionC > rt.MaxJunctionC {
			rt.MaxJunctionC = n.tel.MaxJunctionC
			rt.HottestMachine = n.idx
		}
	}
	if len(nodes) > 0 {
		rt.MeanJunctionC = meanSum / float64(len(nodes))
	}
	return rt
}

// RunOpts is Run with per-run options; the zero Options value is exactly Run.
func RunOpts(spec *scenario.Spec, policyName string, scale float64, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ss := spec.Scheduler
	if ss == nil {
		return nil, fmt.Errorf("fleetsched: scenario %q has no scheduler block (run it with dimctl scenario run)", spec.Name)
	}
	name := policyName
	if name == "" {
		name = ss.Policy
	}
	if name == "" {
		name = scenario.PlaceCoolestFirst
	}
	policy, err := New(name)
	if err != nil {
		return nil, err
	}

	spBuild := opts.Trace.Start("build", "sched", 0)
	trials := spec.CompileFor(scale, opts.Engine.Integrator)
	nodes, err := runner.MapErr(opts.Engine.Jobs, trials, func(_ int, t scenario.MachineTrial) (*node, error) {
		return buildNode(t)
	})
	spBuild.EndArgs(map[string]any{"machines": len(trials)})
	if err != nil {
		return nil, fmt.Errorf("fleetsched: scenario %q: %w", spec.Name, err)
	}

	duration := trials[0].Duration
	warmup := trials[0].Warmup

	// The dispatch round scales with the run so the decision count is
	// scale-invariant, floored at the metric tick, and capped so at least
	// one barrier lands inside the measurement window.
	roundS := ss.RoundS
	if roundS <= 0 {
		roundS = scenario.DefaultRoundS
	}
	round := units.FromSeconds(duration.Seconds() * roundS / spec.DurationS)
	if round < scenario.MetricTick {
		round = scenario.MetricTick
	}
	if warmup > 0 && round > duration-warmup {
		round = duration - warmup
	}

	dispatch := rng.New(spec.Fleet.BaseSeed + dispatchSeedSalt)
	jobs := genJobs(spec, duration, dispatch)
	placeRNG := dispatch.Split()

	violC := spec.ViolationThreshold()
	triggerC := ss.Migration.TriggerC
	if triggerC <= 0 {
		triggerC = violC
	}
	maxMoves := ss.Migration.MaxMovesPerRound
	if maxMoves <= 0 {
		maxMoves = 1
	}

	cursor := 0
	dispatched := 0
	migrations := 0
	measuring := false
	// Round-barrier scratch, reused across rounds so the dispatch loop
	// allocates nothing per barrier: the candidate views and the migrate
	// loop's below-trigger subset.
	views := make([]MachineView, len(nodes))
	migScratch := make([]MachineView, 0, len(nodes))
	roundNo := 0
	resumed := false
	for now := units.Time(0); now < duration; {
		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				return nil, fmt.Errorf("fleetsched: scenario %q: %w", spec.Name, err)
			}
		}
		next := now + round
		if next > duration {
			next = duration
		}
		if !measuring && now >= warmup {
			for _, n := range nodes {
				n.snapshotWindow()
			}
			measuring = true
		}

		for i, n := range nodes {
			views[i] = n.view(violC)
		}
		if ss.Migration.Enabled && now > 0 {
			migrations += migrate(nodes, views, migScratch, policy, placeRNG, triggerC, maxMoves)
		}
		// Within a round, views are the single source of in-round truth:
		// each placement (and each migration above) feeds back into them
		// so later decisions in the same round see the updated load. Node
		// state is rebuilt wholesale from the machines at the next barrier.
		for cursor < len(jobs) && jobs[cursor].ArriveAt <= now {
			j := jobs[cursor]
			cursor++
			pos := policy.Place(j, &FleetView{Machines: views, RNG: placeRNG})
			n := nodes[views[pos].Index]
			j.DispatchAt = now
			works := make([]float64, j.Threads)
			for i := range works {
				works[i] = j.WorkS
			}
			n.spawnJob(j, works)
			n.placed++
			dispatched++
			views[pos].Load += float64(j.Threads) / float64(views[pos].Cores)
			views[pos].PendingWorkS += float64(j.Threads) * j.WorkS
			views[pos].ResidentJobs++
		}

		// Replay discipline: while re-running the prefix of a resumed job the
		// barrier stays silent; at the checkpointed barrier itself the fleet
		// digest must match before the run is allowed to continue.
		replaying := opts.Resume != nil && roundNo <= opts.Resume.Round
		if replaying && roundNo == opts.Resume.Round {
			if err := verifyResume(opts.Resume, opts.Engine.Jobs, roundNo, now, nodes, cursor, dispatched, migrations); err != nil {
				return nil, fmt.Errorf("fleetsched: scenario %q: %w", spec.Name, err)
			}
			resumed = true
		}
		if !replaying {
			if opts.OnRound != nil {
				opts.OnRound(roundTelemetry(roundNo, now, nodes, cursor, dispatched, migrations))
			}
			if opts.CheckpointEvery > 0 && roundNo%opts.CheckpointEvery == 0 {
				cp := Checkpoint{
					Round:      roundNo,
					NowS:       now.Seconds(),
					Cursor:     cursor,
					Dispatched: dispatched,
					Migrations: migrations,
					Digest:     fleetDigest(roundNo, now, nodes, machineDigests(opts.Engine.Jobs, nodes), cursor, dispatched, migrations),
				}
				if opts.OnCheckpoint != nil {
					opts.OnCheckpoint(cp)
				}
			}
		}
		roundNo++

		var spRound obs.Span
		if roundNo <= traceRoundSpans {
			spRound = opts.Trace.Start(fmt.Sprintf("round-%04d", roundNo-1), "sched", 0)
		}
		if _, err := runner.MapCtx(opts.Context, opts.Engine.Jobs, nodes, func(_ int, n *node) struct{} {
			n.advance(next, units.Celsius(violC))
			return struct{}{}
		}); err != nil {
			return nil, fmt.Errorf("fleetsched: scenario %q: %w", spec.Name, err)
		}
		spRound.EndArgs(map[string]any{"now_s": next.Seconds()})
		now = next
	}
	if opts.Resume != nil && !resumed {
		return nil, fmt.Errorf("fleetsched: scenario %q: resume checkpoint names round %d but the run has only %d barriers (spec or scale mismatch)", spec.Name, opts.Resume.Round, roundNo)
	}

	res := &Result{
		Spec:     spec,
		Policy:   policy.Name(),
		Scale:    scale,
		Duration: duration,
		Warmup:   warmup,
		Round:    round,
		Jobs:     jobs,
	}
	spAgg := opts.Trace.Start("aggregate", "sched", 0)
	res.Machines = make([]MachineStats, len(nodes))
	for i, n := range nodes {
		res.Machines[i] = n.finish(duration)
	}
	base := make([]scenario.MachineResult, len(res.Machines))
	for i := range res.Machines {
		base[i] = res.Machines[i].MachineResult
	}
	res.Fleet = scenario.Aggregate(spec, base)
	res.Placement = aggregatePlacement(res.Machines, jobs, dispatched, migrations)
	spAgg.End()
	return res, nil
}

// migrate runs one round of the evacuation loop: machines whose hottest
// junction sits at or above the trigger shed their largest-remaining job to a
// policy-chosen machine below the trigger, up to maxMoves moves fleet-wide.
// Hottest machines evacuate first; a fleet entirely at or above trigger has
// nowhere to put work and skips the round. Every move feeds back into views,
// so later moves this round — and the arrival placements that follow — see
// the post-migration load.
func migrate(nodes []*node, views []MachineView, sub []MachineView, policy Policy, placeRNG *rng.Source, triggerC float64, maxMoves int) int {
	var hot, coolPos []int // positions into views
	for i := range views {
		if views[i].MaxJunctionC >= triggerC {
			hot = append(hot, i)
		} else {
			coolPos = append(coolPos, i)
		}
	}
	if len(hot) == 0 || len(coolPos) == 0 {
		return 0
	}
	sort.SliceStable(hot, func(a, b int) bool {
		va, vb := views[hot[a]], views[hot[b]]
		if va.MaxJunctionC != vb.MaxJunctionC {
			return va.MaxJunctionC > vb.MaxJunctionC
		}
		return va.Index < vb.Index
	})

	moved := 0
	for _, pos := range hot {
		if moved >= maxMoves {
			break
		}
		src := nodes[views[pos].Index]
		j := evacuationCandidate(src)
		if j == nil {
			continue
		}
		// Carry each thread's unfinished assignment, captured before
		// eviction (barrier telemetry has already flushed scheduler
		// accounting). Measuring against the current assignment — not the
		// original WorkS — conserves work exactly across repeat
		// migrations; threads that already finished carry nothing and are
		// not respawned.
		works := make([]float64, 0, len(j.threads))
		var total float64
		for i, th := range j.threads {
			if r := j.assigned[i] - th.WorkDone; r > 0 {
				works = append(works, r)
				total += r
			}
		}
		for _, th := range j.threads {
			src.m.Evict(th)
		}
		removeJob(src, j)

		sub = sub[:0]
		for _, p := range coolPos {
			sub = append(sub, views[p])
		}
		vp := coolPos[policy.Place(j, &FleetView{Machines: sub, RNG: placeRNG})]
		dst := nodes[views[vp].Index]
		j.Migrations++
		dst.spawnJob(j, works)

		views[vp].Load += float64(len(works)) / float64(views[vp].Cores)
		views[vp].PendingWorkS += total
		views[vp].ResidentJobs++
		views[pos].Load -= float64(len(works)) / float64(views[pos].Cores)
		if views[pos].Load < 0 {
			views[pos].Load = 0
		}
		views[pos].PendingWorkS -= total
		if views[pos].PendingWorkS < 0 {
			views[pos].PendingWorkS = 0
		}
		views[pos].ResidentJobs--

		src.migratedOut++
		dst.migratedIn++
		moved++
	}
	return moved
}

// evacuationCandidate picks the hot machine's job with the most remaining
// work (the one that will keep heating it longest), ties broken by lowest
// job ID. Jobs with nothing left are not worth moving.
func evacuationCandidate(n *node) *Job {
	var best *Job
	var bestRem float64
	for _, j := range n.jobs {
		if j.done {
			continue
		}
		rem := j.remaining()
		if rem <= 1e-9 {
			continue
		}
		if best == nil || rem > bestRem || (rem == bestRem && j.ID < best.ID) {
			best, bestRem = j, rem
		}
	}
	return best
}

func removeJob(n *node, j *Job) {
	for i, cur := range n.jobs {
		if cur == j {
			n.jobs = append(n.jobs[:i], n.jobs[i+1:]...)
			return
		}
	}
}

// finish folds the node into its per-machine result over the measurement
// window, mirroring the unscheduled path's accounting field for field.
func (n *node) finish(duration units.Time) MachineStats {
	secs := (duration - n.t0).Seconds()
	r := scenario.MachineResult{
		Index:     n.idx,
		Seed:      n.trial.Seed,
		FanFactor: n.trial.FanFactor,
	}
	r.MeanJunction = (n.m.MeanJunctionIntegral() - n.i0) / secs
	r.PeakJunction = n.peak
	r.IdleTemp = float64(n.m.IdleJunctionTemp())
	r.WorkRate = (n.m.TotalWorkDone() - n.w0) / secs
	r.MeanPower = float64(n.m.Energy.Energy()-n.e0) / secs
	r.BusyS = n.tel.BusyS - n.busy0S
	r.InjectedIdleS = n.tel.InjectedIdleS - n.inj0S
	r.Injections = n.tel.Injections - n.injN0
	r.ViolationS = n.violationS
	r.Violations = n.violations
	if n.tm1 != nil {
		r.TM1Trips = n.tm1.Engagements - n.tm1Trips0
		r.TM1ThrottledS = (n.tm1.Throttled(n.m.Now()) - n.tm1Throttled0).Seconds()
	}
	if n.srv != nil {
		stats := n.srv.Snapshot(n.m.Now())
		r.Web = &stats
	}
	return MachineStats{
		MachineResult: r,
		JobsPlaced:    n.placed,
		JobsCompleted: n.completed,
		MigratedIn:    n.migratedIn,
		MigratedOut:   n.migratedOut,
	}
}
