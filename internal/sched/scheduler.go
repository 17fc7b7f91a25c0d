package sched

import (
	"fmt"

	"repro/internal/simclock"
	"repro/internal/units"
)

// Config holds scheduler parameters. The defaults mirror the paper's setup:
// the 4.4BSD scheduler's fixed 100 ms timeslice on a four-core machine.
type Config struct {
	Cores     int
	Timeslice units.Time
	// CtxSwitch is the CPU cost charged when a core switches between
	// different threads (cache and register state movement).
	CtxSwitch units.Time
	// InjectOverhead is the bookkeeping cost of an injected idle quantum
	// (pinning, state monitoring) added to the quantum's duration. It is
	// the source of the small measured-vs-model throughput deviation in
	// §3.3, which grows with injection probability.
	InjectOverhead units.Time
	// PerCPUQueues selects a ULE-style organisation — per-core run queues
	// with affinity placement and idle-time work stealing — instead of
	// the 4.4BSD global queue. The paper modified the 4.4BSD scheduler
	// "however the mechanism generalizes to ULE and other schedulers"
	// (§3.1, fn. 2); this option lets the harness check that claim: the
	// injection decision point is identical in both organisations.
	PerCPUQueues bool
}

// DefaultConfig returns the testbed configuration.
func DefaultConfig() Config {
	return Config{
		Cores:          4,
		Timeslice:      100 * units.Millisecond,
		CtxSwitch:      25 * units.Microsecond,
		InjectOverhead: 60 * units.Microsecond,
	}
}

// Injector decides, at each dispatch, whether to displace the chosen thread
// with an injected idle quantum. This is Dimetrodon's hook point (§3.1): the
// implementation in internal/core pins the thread and runs the idle thread
// for the returned duration. The dispatching core's index is provided so
// topology-aware policies (SMT idle co-scheduling, §3.2) can align quanta
// across sibling hardware contexts.
type Injector interface {
	Decide(t *Thread, core int, now units.Time) (idle units.Time, inject bool)
}

// Listener observes core occupancy changes; the machine layer uses it to
// drive the CPU power model.
type Listener interface {
	// CoreRunning fires when a core starts executing t (C0).
	CoreRunning(core int, t *Thread)
	// CoreIdle fires when a core goes idle; injected distinguishes a
	// Dimetrodon idle quantum from natural idleness.
	CoreIdle(core int, injected bool)
	// ThreadExited fires when a thread terminates.
	ThreadExited(t *Thread)
}

// RateProvider reports the current progress rate of an active core in
// reference-seconds of work per second of virtual time (1.0 at nominal
// frequency and full duty). The machine wires this to the chip so DVFS and
// TCC settings slow computation.
type RateProvider interface {
	ProgressRate() float64
}

type constRate float64

func (c constRate) ProgressRate() float64 { return float64(c) }

// timerKind labels what a core's pending timer event means.
type timerKind int

const (
	timerNone timerKind = iota
	timerWorkDone
	timerQuantum
	timerInjectEnd
)

// coreRun is one core's dispatch state.
type coreRun struct {
	id         int
	current    *Thread
	victim     *Thread // pinned thread during an injected idle quantum
	injected   bool
	lastThread *Thread
	quantumEnd units.Time
	// ev is the core's one timer event, owned and re-armed in place: a
	// core has at most one pending timer, and arming it is the scheduler's
	// hottest path. timer is &ev while it is armed, nil otherwise.
	ev    simclock.Event
	timer *simclock.Event
	kind  timerKind

	// Occupancy accounting for invariant checks and Figure 1.
	BusyTime       units.Time
	InjectIdleTime units.Time
	busyStart      units.Time
	injectStart    units.Time
}

// Scheduler is the event-driven dispatch engine.
type Scheduler struct {
	cfg      Config
	clock    *simclock.Clock
	queues   []runQueue // one global queue, or one per core (ULE style)
	cores    []coreRun
	threads  []*Thread
	listener Listener
	rate     RateProvider
	injector Injector
	nextTID  int

	// TotalInjections counts injected idle quanta across all threads.
	TotalInjections int
	// Steals counts ULE-style work-steal migrations.
	Steals int
}

// New returns a scheduler on the given clock. listener may be nil; rate may
// be nil for a constant 1.0.
func New(clock *simclock.Clock, cfg Config, listener Listener, rate RateProvider) *Scheduler {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("sched: %d cores", cfg.Cores))
	}
	if cfg.Timeslice <= 0 {
		panic("sched: non-positive timeslice")
	}
	if rate == nil {
		rate = constRate(1)
	}
	s := &Scheduler{cfg: cfg, clock: clock, listener: listener, rate: rate}
	s.cores = make([]coreRun, cfg.Cores)
	for i := range s.cores {
		s.cores[i] = coreRun{id: i}
		c := &s.cores[i]
		c.ev.Fire = func(units.Time) { s.onTimer(c) }
	}
	nq := 1
	if cfg.PerCPUQueues {
		nq = cfg.Cores
	}
	s.queues = make([]runQueue, nq)
	return s
}

// enqueue places a runnable thread on the appropriate queue: the global one,
// or (ULE style) the thread's affinity queue — the core it last ran on, or
// the shortest queue for fresh threads.
func (s *Scheduler) enqueue(t *Thread) {
	if !s.cfg.PerCPUQueues {
		s.queues[0].push(t)
		return
	}
	q := t.affinity
	if q < 0 || q >= len(s.queues) {
		// Fresh placement: least-loaded core, counting its occupant.
		q = 0
		best := s.coreLoad(0)
		for i := 1; i < len(s.queues); i++ {
			if l := s.coreLoad(i); l < best {
				q, best = i, l
			}
		}
		t.affinity = q
	}
	s.queues[q].push(t)
}

// coreLoad is a core's ULE load metric: queued threads plus its occupant.
func (s *Scheduler) coreLoad(i int) int {
	l := s.queues[i].len()
	if s.cores[i].current != nil || s.cores[i].injected {
		l++
	}
	return l
}

// popFor removes the best runnable thread for core c: its own queue first,
// then (ULE style) a steal from the longest other queue.
func (s *Scheduler) popFor(c *coreRun) *Thread {
	if !s.cfg.PerCPUQueues {
		return s.queues[0].pop()
	}
	if t := s.queues[c.id].pop(); t != nil {
		return t
	}
	victim := -1
	for i := range s.queues {
		if i == c.id {
			continue
		}
		if s.queues[i].len() > 0 && (victim < 0 || s.queues[i].len() > s.queues[victim].len()) {
			victim = i
		}
	}
	if victim < 0 {
		return nil
	}
	t := s.queues[victim].pop()
	if t != nil {
		t.affinity = c.id
		s.Steals++
	}
	return t
}

// SetInjector installs (or clears, with nil) the idle-injection policy.
func (s *Scheduler) SetInjector(inj Injector) { s.injector = inj }

// Injector returns the installed idle-injection policy, or nil.
func (s *Scheduler) Injector() Injector { return s.injector }

// Threads returns all spawned threads.
func (s *Scheduler) Threads() []*Thread { return s.threads }

// Core returns core i's occupancy counters (busy and injected-idle time so
// far, not counting an in-progress interval).
func (s *Scheduler) Core(i int) (busy, injectedIdle units.Time) {
	return s.cores[i].BusyTime, s.cores[i].InjectIdleTime
}

// NextEventHorizon returns the earliest virtual time at which the scheduler
// itself will next act — the soonest armed core timer (work completion,
// quantum expiry, injected-quantum end) or sleeping thread's wake event —
// and false when nothing is armed (every core naturally idle, no sleeper
// waiting). Until the horizon the scheduler cannot change any core's
// occupancy, so the chip's power configuration is frozen from its side:
// this is the quiescence certificate the machine layer's leap integrator
// rests on. The certificate is one-sided — external components (workload
// arrivals, DTM controllers) schedule their own clock events — but the
// clock's event loop already bounds integration spans by those, so a span
// handed to the integrator never crosses either horizon.
func (s *Scheduler) NextEventHorizon() (units.Time, bool) {
	var at units.Time
	found := false
	consider := func(e *simclock.Event) {
		if e == nil || e.Cancelled() {
			return
		}
		if !found || e.At < at {
			at, found = e.At, true
		}
	}
	for i := range s.cores {
		consider(s.cores[i].timer)
	}
	for _, t := range s.threads {
		consider(t.wakeEvent)
	}
	return at, found
}

// Quiescent reports whether the scheduler is guaranteed not to act strictly
// before `until`: no armed timer or wake event fires earlier. During a
// quiescent window core occupancy — and therefore the scheduler's
// contribution to the power vector — is provably constant.
func (s *Scheduler) Quiescent(until units.Time) bool {
	at, ok := s.NextEventHorizon()
	return !ok || at >= until
}

// QueueLen returns the number of runnable-but-waiting threads across all
// queues.
func (s *Scheduler) QueueLen() int {
	n := 0
	for i := range s.queues {
		n += s.queues[i].len()
	}
	return n
}

// SpawnConfig names the optional attributes of a new thread.
type SpawnConfig struct {
	Name        string
	ProcessID   int
	Kernel      bool
	Priority    int // 0 means: PriorityKernel for kernel, PriorityUser otherwise
	PowerFactor float64
}

// Spawn creates a thread driven by prog and feeds it into the scheduler. The
// first action is requested immediately.
func (s *Scheduler) Spawn(prog Program, cfg SpawnConfig) *Thread {
	if prog == nil {
		panic("sched: Spawn with nil program")
	}
	t := &Thread{
		ID:          s.nextTID,
		Name:        cfg.Name,
		ProcessID:   cfg.ProcessID,
		Kernel:      cfg.Kernel,
		Priority:    cfg.Priority,
		PowerFactor: cfg.PowerFactor,
		prog:        prog,
		onCore:      -1,
		affinity:    -1,
		SpawnedAt:   s.clock.Now(),
	}
	if t.Name == "" {
		t.Name = fmt.Sprintf("thread-%d", t.ID)
	}
	if t.Priority == 0 && !t.Kernel {
		t.Priority = PriorityUser
	}
	if t.PowerFactor == 0 {
		t.PowerFactor = 1
	}
	t.workLabel = "work-done:" + t.Name
	t.quantLabel = "quantum:" + t.Name
	t.wake.Label = "wake:" + t.Name
	t.wake.Fire = func(units.Time) {
		t.wakeEvent = nil
		s.applyAction(t, t.prog.Next(s.clock.Now()))
	}
	s.nextTID++
	s.threads = append(s.threads, t)
	s.applyAction(t, t.prog.Next(s.clock.Now()))
	return t
}

// applyAction transitions t according to the action its program produced.
// The thread must not currently occupy a core.
func (s *Scheduler) applyAction(t *Thread, a Action) {
	switch a.Kind {
	case ActCompute:
		if a.Work <= 0 {
			// Zero-length compute degenerates to asking again; guard
			// against pathological programs by treating it as exit.
			s.exitThread(t)
			return
		}
		t.remaining = a.Work
		s.makeRunnable(t)
	case ActSleep:
		t.state = StateSleeping
		d := a.Duration
		if d < 0 {
			d = 0
		}
		s.clock.Reschedule(&t.wake, s.clock.Now()+d)
		t.wakeEvent = &t.wake
	case ActBlock:
		t.state = StateSleeping
	case ActExit:
		s.exitThread(t)
	default:
		panic(fmt.Sprintf("sched: unknown action kind %d", a.Kind))
	}
}

func (s *Scheduler) exitThread(t *Thread) {
	t.state = StateExited
	t.onCore = -1
	t.ExitedAt = s.clock.Now()
	if s.listener != nil {
		s.listener.ThreadExited(t)
	}
}

// Wake unblocks a thread parked by ActBlock. It is idempotent: waking a
// thread that is not sleeping is a no-op (the races a real kernel guards with
// wait channels collapse to this in virtual time). Timed sleeps are woken by
// their own timer, not by Wake.
func (s *Scheduler) Wake(t *Thread) {
	if t.state != StateSleeping || t.wakeEvent != nil {
		return
	}
	s.applyAction(t, t.prog.Next(s.clock.Now()))
}

// makeRunnable queues t and places it on a core if one is free (or if t
// should preempt a lower-priority occupant).
func (s *Scheduler) makeRunnable(t *Thread) {
	t.state = StateRunnable
	t.onCore = -1
	s.enqueue(t)
	// Prefer a naturally idle core. Injected-idle cores are deliberately
	// not disturbed: the paper's mechanism commits the core to its idle
	// quantum (the displaced thread is pinned; interrupts are handled by
	// the remaining cores, which at the paper's web-workload loads are
	// almost always available).
	for i := range s.cores {
		c := &s.cores[i]
		if c.current == nil && !c.injected {
			s.dispatch(c)
			return
		}
	}
	// Kernel threads preempt the lowest-priority user occupant, modelling
	// interrupt delivery.
	if t.Kernel {
		var worst *coreRun
		for i := range s.cores {
			c := &s.cores[i]
			if c.current != nil && c.current.Priority > t.Priority {
				if worst == nil || c.current.Priority > worst.current.Priority {
					worst = c
				}
			}
		}
		if worst != nil {
			s.preempt(worst)
		}
	}
}

// preempt stops the core's current thread mid-quantum and re-dispatches.
func (s *Scheduler) preempt(c *coreRun) {
	t := c.current
	if t == nil {
		return
	}
	s.chargeRun(c, t)
	s.cancelTimer(c)
	t.Preemptions++
	t.state = StateRunnable
	t.onCore = -1
	c.current = nil
	s.enqueue(t)
	s.dispatch(c)
}

// dispatch fills a free core with the best runnable thread, consulting the
// injection policy first — this is the scheduler decision point of §2.2:
// "each time the scheduler is about to schedule a thread, with probability p
// it instead runs the idle thread for a quantum of length L".
func (s *Scheduler) dispatch(c *coreRun) {
	if c.current != nil || c.injected {
		panic("sched: dispatch on an occupied core")
	}
	now := s.clock.Now()
	t := s.popFor(c)
	if t == nil {
		s.setNaturallyIdle(c)
		return
	}
	if s.injector != nil {
		if idle, ok := s.injector.Decide(t, c.id, now); ok && idle > 0 {
			s.inject(c, t, idle)
			return
		}
	}
	s.run(c, t)
}

// ForceIdle preempts the given core's current thread (if any, and not a
// kernel thread) and idles the core for dur as an injected quantum, pinning
// the displaced thread. It reports whether the core was idled. It is the
// primitive behind SMT idle co-scheduling: aligning a sibling context's idle
// window with an injection decision so the whole physical core can reach its
// low-power state (§3.2).
func (s *Scheduler) ForceIdle(coreID int, dur units.Time) bool {
	if coreID < 0 || coreID >= len(s.cores) || dur <= 0 {
		return false
	}
	c := &s.cores[coreID]
	if c.injected {
		return false // already idling
	}
	if c.current == nil {
		return false // naturally idle; nothing to align
	}
	t := c.current
	if t.Kernel {
		return false // kernel threads are always scheduled (§3.1)
	}
	s.chargeRun(c, t)
	s.cancelTimer(c)
	c.current = nil
	s.inject(c, t, dur)
	return true
}

// Kill terminates a thread immediately, whatever its state: a running thread
// is charged for its progress and its core re-dispatched, a queued thread is
// removed from its run queue, a sleeper's wake timer is cancelled, and the
// pinned victim of an in-flight injected idle quantum is detached (the core
// finishes its committed quantum — the paper's mechanism never cuts one
// short — but nothing is re-enqueued when it ends). It reports whether the
// thread was alive. Kill is the fleet dispatcher's eviction primitive: a
// migrated job's threads are killed here and respawned, with their remaining
// work, on the destination machine.
func (s *Scheduler) Kill(t *Thread) bool {
	switch t.state {
	case StateExited:
		return false
	case StateRunning:
		c := &s.cores[t.onCore]
		s.chargeRun(c, t)
		s.cancelTimer(c)
		c.current = nil
		s.exitThread(t)
		s.dispatch(c)
		return true
	case StatePinned:
		c := &s.cores[t.onCore]
		c.victim = nil
		s.exitThread(t)
		return true
	case StateRunnable:
		for i := range s.queues {
			if s.queues[i].remove(t) {
				break
			}
		}
		s.exitThread(t)
		return true
	case StateSleeping:
		if t.wakeEvent != nil {
			s.clock.Cancel(t.wakeEvent)
			t.wakeEvent = nil
		}
		s.exitThread(t)
		return true
	default:
		panic(fmt.Sprintf("sched: Kill in unknown state %v", t.state))
	}
}

// inject pins t and idles the core for the given quantum (§3.1: "we pin the
// thread that would have run on the runqueue (so it is not run by another
// processor) and schedule the kernel idle thread instead").
func (s *Scheduler) inject(c *coreRun, t *Thread, idle units.Time) {
	now := s.clock.Now()
	t.state = StatePinned
	t.onCore = c.id
	t.Injections++
	s.TotalInjections++
	c.victim = t
	c.injected = true
	c.injectStart = now
	if s.listener != nil {
		s.listener.CoreIdle(c.id, true)
	}
	s.arm(c, timerInjectEnd, now+idle+s.cfg.InjectOverhead, "inject-end")
}

// run places t on the core for up to one timeslice.
func (s *Scheduler) run(c *coreRun, t *Thread) {
	now := s.clock.Now()
	pad := units.Time(0)
	if c.lastThread != t {
		pad = s.cfg.CtxSwitch
	}
	t.state = StateRunning
	t.onCore = c.id
	t.affinity = c.id // ULE affinity: re-enqueue where it last ran
	t.Dispatches++
	t.runStart = now
	t.switchPad = pad
	t.runRate = s.rate.ProgressRate()
	c.current = t
	c.lastThread = t
	c.busyStart = now
	c.quantumEnd = now + s.cfg.Timeslice
	if s.listener != nil {
		s.listener.CoreRunning(c.id, t)
	}
	s.armRunTimer(c, t)
}

// armRunTimer schedules the earlier of work completion and quantum expiry.
func (s *Scheduler) armRunTimer(c *coreRun, t *Thread) {
	now := s.clock.Now()
	rate := t.runRate
	var done units.Time
	if rate <= 0 {
		done = c.quantumEnd + units.Second // starved: only the quantum fires
	} else {
		done = now + t.switchPad + units.FromSeconds(t.remaining/rate)
	}
	if done <= c.quantumEnd {
		s.arm(c, timerWorkDone, done, t.workLabel)
	} else {
		s.arm(c, timerQuantum, c.quantumEnd, t.quantLabel)
	}
}

// arm re-arms the core's owned timer event to fire at `at`.
func (s *Scheduler) arm(c *coreRun, kind timerKind, at units.Time, label string) {
	c.kind = kind
	c.ev.Label = label
	s.clock.Reschedule(&c.ev, at)
	c.timer = &c.ev
}

func (s *Scheduler) cancelTimer(c *coreRun) {
	if c.timer != nil {
		s.clock.Cancel(c.timer)
		c.timer = nil
	}
	c.kind = timerNone
}

// chargeRun folds the elapsed occupancy of c's current thread into its
// accounting and ends the occupancy interval.
func (s *Scheduler) chargeRun(c *coreRun, t *Thread) {
	now := s.clock.Now()
	elapsed := now - t.runStart
	t.CPUTime += elapsed
	c.BusyTime += now - c.busyStart
	effective := elapsed - t.switchPad
	if effective < 0 {
		effective = 0
	}
	progress := effective.Seconds() * t.runRate
	if progress > t.remaining {
		progress = t.remaining
	}
	t.WorkDone += progress
	t.remaining -= progress
	t.runStart = now
	t.switchPad = 0
	c.busyStart = now
}

// ChargeAll folds any in-progress occupancy into thread and core accounting
// without descheduling anything. Call it before reading WorkDone/BusyTime at
// a measurement boundary; the armed timers remain consistent because charging
// shortens remaining work by exactly the progress made so far.
func (s *Scheduler) ChargeAll() {
	for i := range s.cores {
		c := &s.cores[i]
		if c.current != nil {
			s.chargeRun(c, c.current)
		}
		if c.injected {
			now := s.clock.Now()
			c.InjectIdleTime += now - c.injectStart
			c.injectStart = now
		}
	}
}

// onTimer handles the core's pending timer: work completion, quantum expiry
// or the end of an injected idle quantum.
func (s *Scheduler) onTimer(c *coreRun) {
	kind := c.kind
	c.timer = nil
	c.kind = timerNone
	switch kind {
	case timerWorkDone:
		t := c.current
		s.chargeRun(c, t)
		// Guard against float rounding leaving a sliver of work.
		if t.remaining > 1e-9 {
			s.armRunTimer(c, t)
			return
		}
		t.remaining = 0
		s.nextActionInPlace(c, t)
	case timerQuantum:
		t := c.current
		s.chargeRun(c, t)
		t.state = StateRunnable
		t.onCore = -1
		c.current = nil
		s.enqueue(t)
		s.dispatch(c) // fresh decision: the injector is consulted again
	case timerInjectEnd:
		t := c.victim
		c.victim = nil
		c.injected = false
		c.InjectIdleTime += s.clock.Now() - c.injectStart
		if t != nil { // a killed victim leaves nothing to resume
			t.state = StateRunnable
			t.onCore = -1
			s.enqueue(t)
		}
		s.dispatch(c)
	default:
		panic("sched: stray timer")
	}
}

// nextActionInPlace advances t's program after a completed compute action.
// If the program immediately wants more CPU, the thread keeps the core for
// the rest of its quantum without a fresh scheduling decision — matching a
// real kernel, where a thread returning from one computation into another
// doesn't pass through the dispatcher.
func (s *Scheduler) nextActionInPlace(c *coreRun, t *Thread) {
	now := s.clock.Now()
	a := t.prog.Next(now)
	if a.Kind == ActCompute && a.Work > 0 {
		t.remaining = a.Work
		t.runStart = now
		t.switchPad = 0
		s.armRunTimer(c, t)
		return
	}
	// The thread leaves the core.
	t.onCore = -1
	c.current = nil
	s.applyAction(t, a)
	s.dispatch(c)
}

// setNaturallyIdle marks the core idle with no injected quantum.
func (s *Scheduler) setNaturallyIdle(c *coreRun) {
	if s.listener != nil {
		s.listener.CoreIdle(c.id, false)
	}
}
