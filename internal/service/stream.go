package service

import (
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
	// onAppend, when non-nil, observes each appended event after its Seq is
	// assigned — the flight recorder's tap. It runs under the stream lock and
	// must be cheap and non-blocking (the recorder's ring write is).
	onAppend func(Event)
}

func newStream(max int) *stream {
	if max < 16 {
		max = 16
	}
	return &stream{
		max:    max,
		notify: make(chan struct{}),
	}
}

// append assigns the events consecutive sequence numbers and wakes all
// waiters once. Appending to a closed stream is a no-op (a late hook firing
// after cancellation must not resurrect the stream).
func (st *stream) append(es ...Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || len(es) == 0 {
		return
	}
	for _, e := range es {
		e.Seq = st.next
		st.next++
		if st.onAppend != nil {
			st.onAppend(e)
		}
		if len(st.ring) < st.max {
			st.ring = append(st.ring, e)
		} else {
			st.ring[e.Seq%st.max] = e
			st.start++
		}
	}
	close(st.notify)
	st.notify = make(chan struct{})
}

// closeStream marks the stream complete and wakes all waiters.
func (st *stream) closeStream() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	close(st.notify)
	st.notify = make(chan struct{})
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
