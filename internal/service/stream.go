package service

import (
	"slices"
	"sync"

	"repro/internal/fleetsched"
	"repro/internal/scenario"
)

// Event is one element of a job's telemetry stream, serialised as NDJSON or
// SSE. Seq numbers are dense per job; a "gap" event marks entries that fell
// out of the bounded ring before a slow subscriber read them.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // state | round | machine | telemetry | policy | gap | done | error | recovered | degraded
	Job  string `json:"job"`

	// State carries the job state for "state"/"done"/"error" events.
	State string `json:"state,omitempty"`
	// Error carries the failure message for "error" events.
	Error string `json:"error,omitempty"`
	// Policy names the placement policy a sched-compare sweep just entered.
	Policy string `json:"policy,omitempty"`
	// Dropped counts ring-evicted events for "gap" events.
	Dropped int `json:"dropped,omitempty"`
	// Resumed describes what a recovered job's checkpoint lets it skip
	// ("recovered" events): "from scratch", "replay to round N", or
	// "N machines precomputed".
	Resumed string `json:"resumed,omitempty"`

	// Round is the fleet's round-barrier snapshot (scheduled runs).
	Round *fleetsched.RoundTelemetry `json:"round,omitempty"`
	// Machine is a per-machine sample or completion summary.
	Machine *MachineEvent `json:"machine,omitempty"`
}

// MachineEvent is one fleet member's in-run telemetry sample ("telemetry")
// or completion summary ("machine").
type MachineEvent struct {
	Index int     `json:"index"`
	NowS  float64 `json:"now_s"`

	MeanJunctionC float64 `json:"mean_junction_c"`
	MaxJunctionC  float64 `json:"max_junction_c"`
	PeakJunctionC float64 `json:"peak_junction_c,omitempty"`

	Injections int     `json:"injections,omitempty"`
	ViolationS float64 `json:"violation_s,omitempty"`

	// Completion-summary fields ("machine" events only).
	BusyS         float64 `json:"busy_s,omitempty"`
	InjectedIdleS float64 `json:"injected_idle_s,omitempty"`
	Violations    int     `json:"violations,omitempty"`

	// violationS is a "machine" event's violation seconds, which the fleet
	// violation histogram folds. It is not serialised: machine events keep
	// their wire form.
	violationS float64
}

// sampleEvent converts an engine telemetry sample into a stream event
// payload.
func sampleEvent(sm scenario.MachineSample) *MachineEvent {
	return &MachineEvent{
		Index:         sm.Index,
		NowS:          sm.NowS,
		MeanJunctionC: sm.MeanJunctionC,
		MaxJunctionC:  sm.MaxJunctionC,
		PeakJunctionC: sm.PeakJunctionC,
		Injections:    sm.Injections,
		ViolationS:    sm.ViolationS,
	}
}

// machineEvent converts a per-machine completion summary into its stream
// event payload.
func machineEvent(m scenario.MachineResult) *MachineEvent {
	return &MachineEvent{
		Index:         m.Index,
		MeanJunctionC: m.MeanJunction,
		MaxJunctionC:  m.PeakJunction,
		PeakJunctionC: m.PeakJunction,
		BusyS:         m.BusyS,
		InjectedIdleS: m.InjectedIdleS,
		Injections:    m.Injections,
		Violations:    m.Violations,
		violationS:    m.ViolationS,
	}
}

// terminal reports whether e ends its job's stream.
func (e Event) terminal() bool { return e.Type == "done" || e.Type == "error" }

// emit publishes events on j's stream: the only way a job event is made.
// The stream assigns each its Seq and, under its lock, runs s.fold on it, so
// every view derived from a job's events sees them in Seq order; the
// terminal event closes the stream and hands its history to s.hist.
func (s *Service) emit(j *Job, es ...Event) { j.stream.append(es...) }

// jobStream makes a job's stream: a ring of MaxEvents folded by s.fold whose
// history, once the job finishes, counts against the daemon's one budget.
func (s *Service) jobStream() *stream {
	st := newStream(s.cfg.MaxEvents, s.fold)
	st.hist = &s.hist
	return st
}

// retainedEvents sums the events held in every tracked job's ring.
func (s *Service) retainedEvents() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, j := range s.jobs {
		n += int64(j.stream.retained())
	}
	return n
}

// fold applies one job event to every view derived from job events: the
// flight recorder's "stream" record, the heat map (which drops the job's row
// at its terminal event) and, for each announced machine, the fleet
// violation histogram. It runs under the job's stream lock and must stay
// cheap and non-blocking.
func (s *Service) fold(e Event) {
	if s.rec != nil {
		s.rec.Record("stream", e.Job, e.Type, float64(e.Seq))
	}
	if e.Type == "machine" {
		s.met.fleetViolation.Observe(e.Machine.violationS)
	}
	s.heat.fold(e.Job, e)
}

// stream is a bounded, append-only event log with broadcast wakeups: one
// writer (the job's worker), any number of subscribers replaying from an
// arbitrary sequence number. Memory stays bounded per job — the ring keeps
// the latest max events and subscribers that fall behind observe a gap
// event instead of unbounded buffering.
type stream struct {
	mu  sync.Mutex
	max int
	// ring is a circular buffer: the event with Seq s sits at ring[s%max]
	// for start <= s < next. It grows to max and then overwrites in place.
	ring   []Event
	start  int
	next   int
	closed bool
	notify chan struct{}
	// fold, when non-nil, observes each appended event after its Seq is
	// assigned (Service.fold for a job's stream). It runs under the stream
	// lock.
	fold func(Event)
	// hist, when non-nil, receives the stream's history once its terminal
	// event closes it, after the stream lock is released.
	hist *history
}

func newStream(max int, fold func(Event)) *stream {
	if max < 16 {
		max = 16
	}
	return &stream{
		max:    max,
		notify: make(chan struct{}),
		fold:   fold,
	}
}

// append assigns the events consecutive sequence numbers and wakes all
// waiters once. A terminal event closes the stream; appending to a closed
// stream is a no-op (a late hook firing after cancellation must not
// resurrect the stream).
func (st *stream) append(es ...Event) {
	if held := st.appendLocked(es); held >= 0 && st.hist != nil {
		st.hist.add(st, held)
	}
}

// appendLocked is append under the stream lock. When the events close the
// stream it returns the events the ring still holds before the terminal
// event, and -1 otherwise.
func (st *stream) appendLocked(es []Event) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || len(es) == 0 {
		return -1
	}
	for _, e := range es {
		e.Seq = st.next
		st.next++
		if st.fold != nil {
			st.fold(e)
		}
		if len(st.ring) < st.max {
			st.ring = append(st.ring, e)
		} else {
			st.ring[e.Seq%st.max] = e
			st.start++
		}
		if e.terminal() {
			st.closed = true
			break
		}
	}
	close(st.notify)
	st.notify = make(chan struct{})
	if st.closed {
		return st.next - st.start - 1
	}
	return -1
}

// cut drops a closed stream's retained events before its terminal event.
// The terminal event keeps its Seq and moves to a fresh ring of one, so the
// dropped events and their payloads become garbage; a reader from any
// earlier Seq sees them as evicted, exactly as a slow reader would.
func (st *stream) cut() {
	st.mu.Lock()
	defer st.mu.Unlock()
	last := st.ring[(st.next-1)%st.max]
	st.ring = []Event{last}
	st.max = 1
	st.start = st.next - 1
}

// retained returns the number of events the ring holds.
func (st *stream) retained() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.next - st.start
}

// Len returns the number of events emitted so far (including evicted ones).
func (st *stream) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.next
}

// since returns the events with Seq >= seq that are still in the ring, the
// next sequence number to resume from, whether the stream is closed, and how
// many requested events were already evicted (the subscriber should emit a
// gap notice when positive).
func (st *stream) since(seq int) (events []Event, next int, closed bool, evicted int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if seq < st.start {
		evicted = st.start - seq
		seq = st.start
	}
	if n := st.next - seq; n > 0 {
		// One segment up to the ring's end, then the wrapped remainder.
		i := seq % st.max
		events = make([]Event, 0, n)
		events = append(events, st.ring[i:min(i+n, len(st.ring))]...)
		events = append(events, st.ring[:n-len(events)]...)
	}
	return events, st.next, st.closed, evicted
}

// wait returns a channel that is closed once events at or past seq exist (or
// the stream closes). If that is already true — an append raced the caller's
// last since — the returned channel is closed immediately, so a subscriber
// loop of since/wait never misses a wakeup.
func (st *stream) wait(seq int) <-chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	if seq < st.next || st.closed {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return st.notify
}

// history is the one event budget that finished jobs share: a FIFO of closed
// streams in finishing order, each with the events it retains before its
// terminal event. While those sum to more than max, the oldest stream is cut
// to its terminal event alone, so a daemon's memory follows its live jobs
// and its most recently finished ones, not how many jobs it has finished.
// The newest finished stream is never cut.
//
// Lock order: the service lock, then mu, then a stream's lock; add runs
// after the finishing stream's lock is released, so no two stream locks
// nest.
type history struct {
	mu   sync.Mutex
	max  int
	fifo []finished
	held int // sum of fifo's n
}

// finished is one closed stream in the history FIFO.
type finished struct {
	st *stream
	n  int // events retained before the terminal event
}

// add enters a just-closed stream holding n events before its terminal
// event, then cuts the oldest streams until the FIFO is within budget.
func (h *history) add(st *stream, n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fifo = append(h.fifo, finished{st, n})
	h.held += n
	for h.held > h.max && len(h.fifo) > 1 {
		h.fifo[0].st.cut()
		h.held -= h.fifo[0].n
		h.fifo[0] = finished{}
		h.fifo = h.fifo[1:]
	}
}

// drop removes a stream whose job record was evicted, so the budget neither
// counts it nor keeps it reachable.
func (h *history) drop(st *stream) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, f := range h.fifo {
		if f.st == st {
			h.held -= f.n
			h.fifo = slices.Delete(h.fifo, i, i+1)
			return
		}
	}
}
