// Package simclock provides the virtual clock and event queue at the heart of
// the discrete-event simulator.
//
// Simulated components never consult wall time: the clock only advances when
// the event loop pops the next scheduled event. Events at equal timestamps
// fire in the order they were scheduled or last re-armed (a stable tie-break
// on a sequence number), which keeps runs deterministic.
package simclock

import (
	"fmt"

	"repro/internal/units"
)

// Event is a callback scheduled to fire at a point in virtual time. The
// callback receives the firing time.
//
// Schedule allocates a one-shot Event. A component with at most one pending
// event at a time can instead own an Event, set its Fire and Label once, and
// re-arm it with Reschedule: the zero value is "not queued".
type Event struct {
	At     units.Time
	Fire   func(now units.Time)
	Label  string // for debugging and trace output
	seq    uint64
	pos    int // heap index + 1; 0 when not queued
	cancel bool
}

// Cancelled reports whether the event was cancelled since it was last armed.
func (e *Event) Cancelled() bool { return e.cancel }

// Clock is a virtual clock with a pending-event queue. The zero value is
// ready to use and starts at time zero.
type Clock struct {
	now    units.Time
	queue  eventHeap
	nexts  uint64
	fired  uint64
	popped bool // guards against re-entrant Advance
}

// Now returns the current virtual time.
func (c *Clock) Now() units.Time { return c.now }

// Fired returns the number of events that have fired so far (cancelled events
// are not counted). Useful for loop bounds in tests.
func (c *Clock) Fired() uint64 { return c.fired }

// Pending returns the number of events queued to fire. Cancelled events
// leave the queue at once and are not counted.
func (c *Clock) Pending() int { return len(c.queue) }

// Schedule enqueues fn to fire at absolute time at. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (c *Clock) Schedule(at units.Time, label string, fn func(now units.Time)) *Event {
	e := &Event{Fire: fn, Label: label}
	c.Reschedule(e, at)
	return e
}

// ScheduleAfter enqueues fn to fire after delay dt from now.
func (c *Clock) ScheduleAfter(dt units.Time, label string, fn func(now units.Time)) *Event {
	if dt < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v for %q", dt, label))
	}
	return c.Schedule(c.now+dt, label, fn)
}

// Reschedule arms the caller-owned event e to fire at absolute time at. A
// pending event moves to the new time; a fired or cancelled one is queued
// again. Either way e takes a fresh tie-break sequence number, exactly as a
// new Schedule call would, so re-arming an owned event and scheduling a new
// one fire in the same order. Rescheduling into the past panics.
func (c *Clock) Reschedule(e *Event, at units.Time) {
	if at < c.now {
		panic(fmt.Sprintf("simclock: schedule %q at %v before now %v", e.Label, at, c.now))
	}
	e.At = at
	e.seq = c.nexts
	c.nexts++
	e.cancel = false
	if e.pos > 0 {
		c.queue.fix(e.pos - 1)
		return
	}
	c.queue.push(e)
}

// Cancel removes a pending event from the queue so it never fires, and marks
// it cancelled. Cancelling an already-fired or already-cancelled event only
// marks it.
func (c *Clock) Cancel(e *Event) {
	if e == nil {
		return
	}
	if e.pos > 0 {
		c.queue.remove(e.pos - 1)
	}
	e.cancel = true
}

// PeekTime returns the firing time of the earliest pending event, and false
// if the queue is empty.
func (c *Clock) PeekTime() (units.Time, bool) {
	if len(c.queue) == 0 {
		return 0, false
	}
	return c.queue[0].At, true
}

// Step pops and fires the next event, advancing the clock to its timestamp.
// It reports false when the queue is empty. A callback may schedule further
// events, including at the current instant, and may re-arm its own event.
func (c *Clock) Step() bool {
	if len(c.queue) == 0 {
		return false
	}
	e := c.queue.remove(0)
	c.now = e.At
	c.fired++
	e.Fire(c.now)
	return true
}

// AdvanceTo runs events up to and including time t, then sets the clock to t.
// The hook, if non-nil, is invoked before each event fires with the span
// (from, to) the clock is about to jump across; it is how the machine layer
// integrates continuous state (thermal, energy) between discrete events.
func (c *Clock) AdvanceTo(t units.Time, hook func(from, to units.Time)) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: AdvanceTo %v before now %v", t, c.now))
	}
	if c.popped {
		panic("simclock: re-entrant AdvanceTo")
	}
	c.popped = true
	defer func() { c.popped = false }()
	for {
		at, ok := c.PeekTime()
		if !ok || at > t {
			break
		}
		if hook != nil && at > c.now {
			hook(c.now, at)
		}
		c.Step()
	}
	if hook != nil && t > c.now {
		hook(c.now, t)
	}
	c.now = t
}

// eventHeap is a binary min-heap ordered by (time, sequence). Each queued
// event records its slot as pos = index + 1.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i + 1
	h[j].pos = j + 1
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	e.pos = len(*h)
	h.up(len(*h) - 1)
}

// remove takes the event at index i out of the heap and returns it.
func (h *eventHeap) remove(i int) *Event {
	q := *h
	n := len(q) - 1
	e := q[i]
	if i != n {
		q.swap(i, n)
	}
	q[n] = nil
	*h = q[:n]
	if i != n {
		h.fix(i)
	}
	e.pos = 0
	return e
}

// fix restores the heap order after the event at index i changed its key.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h eventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts the event at index i toward the leaves and reports whether it
// moved.
func (h eventHeap) down(i int) bool {
	i0 := i
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}
