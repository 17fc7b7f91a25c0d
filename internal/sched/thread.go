// Package sched implements the operating-system scheduler substrate that
// Dimetrodon plugs into: kernel and user threads, a global run queue in the
// style of the 4.4BSD scheduler the paper modified (fixed 100 ms timeslice,
// FIFO round-robin within priority), per-core dispatch, sleep/wake, thread
// pinning, preemption by kernel threads, and context-switch accounting.
//
// The paper's mechanism is reproduced at the same point in the kernel: every
// time a core is about to dispatch a thread, an attached Injector (the
// Dimetrodon policy) may decide to pin the chosen thread and run the idle
// thread for an idle quantum instead, after which the thread is unpinned and
// made runnable again.
package sched

import (
	"fmt"

	"repro/internal/simclock"
	"repro/internal/units"
)

// ActionKind enumerates what a thread's program wants to do next.
type ActionKind int

const (
	// ActCompute runs on the CPU for Action.Work reference-seconds.
	ActCompute ActionKind = iota
	// ActSleep blocks the thread for Action.Duration of virtual time.
	ActSleep
	// ActBlock parks the thread until an external Wake call (used by
	// server worker threads waiting for requests).
	ActBlock
	// ActExit terminates the thread.
	ActExit
)

// Action is one step of a thread's life, produced by its Program.
type Action struct {
	Kind     ActionKind
	Work     float64    // reference-seconds of CPU demand (ActCompute)
	Duration units.Time // sleep length (ActSleep)
}

// Compute returns an ActCompute action for w reference-seconds.
func Compute(w float64) Action { return Action{Kind: ActCompute, Work: w} }

// Sleep returns an ActSleep action.
func Sleep(d units.Time) Action { return Action{Kind: ActSleep, Duration: d} }

// Block returns an ActBlock action.
func Block() Action { return Action{Kind: ActBlock} }

// Exit returns an ActExit action.
func Exit() Action { return Action{Kind: ActExit} }

// Program drives a thread's demand for CPU time. Next is called whenever the
// previous action has finished (and once at spawn); it may consult the
// current virtual time. Programs are single-threaded with respect to their
// thread and need no locking.
type Program interface {
	Next(now units.Time) Action
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(now units.Time) Action

// Next implements Program.
func (f ProgramFunc) Next(now units.Time) Action { return f(now) }

// ThreadState is a thread's scheduling state.
type ThreadState int

const (
	// StateRunnable means the thread is waiting in the run queue.
	StateRunnable ThreadState = iota
	// StateRunning means the thread occupies a core.
	StateRunning
	// StateSleeping means the thread is blocked (timed or indefinite).
	StateSleeping
	// StatePinned means an injected idle quantum displaced the thread: it
	// is held by one core (no other core may run it) until the quantum
	// ends.
	StatePinned
	// StateExited means the thread has terminated.
	StateExited
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StatePinned:
		return "pinned"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("ThreadState(%d)", int(s))
	}
}

// Thread is one schedulable entity.
type Thread struct {
	ID        int
	Name      string
	ProcessID int  // process grouping, used by per-process policies
	Kernel    bool // kernel-level thread (interrupt handlers, daemons)
	// Priority orders dispatch: lower values run first. Kernel threads
	// conventionally use PriorityKernel, user threads PriorityUser.
	Priority int
	// PowerFactor is the activity factor of this thread's code while it
	// runs: cpuburn is 1.0, cooler workloads less. It feeds the CPU power
	// model.
	PowerFactor float64

	prog  Program
	state ThreadState

	remaining float64 // reference-seconds left of the current compute action

	// Statistics.
	CPUTime     units.Time // time occupying a core (includes switch cost)
	WorkDone    float64    // reference-seconds of completed computation
	Dispatches  int        // times chosen by the dispatcher
	Injections  int        // times displaced by an injected idle quantum
	Preemptions int        // times preempted before its quantum ended
	SpawnedAt   units.Time
	ExitedAt    units.Time

	onCore    int // core index while running; -1 otherwise
	affinity  int // ULE-style home queue; -1 until first placement
	enqSeq    uint64
	wakeEvent *simclock.Event
	// Pre-built core timer labels: timer arming sits on the dispatch hot
	// path, so the string concatenation is paid once per thread instead of
	// once per event.
	workLabel  string
	quantLabel string
	runStart   units.Time // when the current occupancy began
	runRate    float64    // progress rate captured at dispatch
	switchPad  units.Time // leading context-switch cost of this occupancy
	// wake is the thread's one timed-sleep event, bound at Spawn and
	// re-armed by each sleep; wakeEvent is &wake while it is armed, nil
	// otherwise.
	wake simclock.Event
}

// Default priorities; lower runs first.
const (
	PriorityKernel = 0
	PriorityUser   = 20
)

// State returns the thread's scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// Runtime returns how long the thread has existed (until exit, if exited).
func (t *Thread) Runtime(now units.Time) units.Time {
	end := now
	if t.state == StateExited {
		end = t.ExitedAt
	}
	return end - t.SpawnedAt
}

// Exited reports whether the thread has terminated.
func (t *Thread) Exited() bool { return t.state == StateExited }

// Remaining returns the reference-seconds left of the thread's current
// compute action (0 when sleeping, blocked or exited). Flush scheduler
// accounting (ChargeAll) first for an exact answer at a measurement boundary.
func (t *Thread) Remaining() float64 { return t.remaining }
