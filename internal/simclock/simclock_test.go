package simclock

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

func TestScheduleAndStep(t *testing.T) {
	var c Clock
	var fired []string
	c.Schedule(2*units.Second, "b", func(now units.Time) {
		if now != 2*units.Second {
			t.Errorf("b fired at %v", now)
		}
		fired = append(fired, "b")
	})
	c.Schedule(units.Second, "a", func(units.Time) { fired = append(fired, "a") })
	for c.Step() {
	}
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Errorf("fired order = %v", fired)
	}
	if c.Now() != 2*units.Second {
		t.Errorf("clock at %v after drain", c.Now())
	}
	if c.Fired() != 2 {
		t.Errorf("Fired() = %d", c.Fired())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var c Clock
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(units.Second, "e", func(units.Time) { order = append(order, i) })
	}
	for c.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	var c Clock
	fired := false
	e := c.Schedule(units.Second, "x", func(units.Time) { fired = true })
	c.Cancel(e)
	for c.Step() {
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Error("event not marked cancelled")
	}
	c.Cancel(e) // idempotent
	c.Cancel(nil)
}

func TestSchedulePastPanics(t *testing.T) {
	var c Clock
	c.Schedule(units.Second, "a", func(units.Time) {})
	c.Step()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	c.Schedule(500*units.Millisecond, "late", func(units.Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	var c Clock
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	c.ScheduleAfter(-units.Second, "neg", func(units.Time) {})
}

func TestEventsScheduledDuringFire(t *testing.T) {
	var c Clock
	var log []string
	c.Schedule(units.Second, "outer", func(now units.Time) {
		log = append(log, "outer")
		c.Schedule(now, "inner-now", func(units.Time) { log = append(log, "inner") })
		c.ScheduleAfter(units.Second, "later", func(units.Time) { log = append(log, "later") })
	})
	for c.Step() {
	}
	want := []string{"outer", "inner", "later"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestAdvanceToHookSpans(t *testing.T) {
	var c Clock
	c.Schedule(units.Second, "a", func(units.Time) {})
	c.Schedule(3*units.Second, "b", func(units.Time) {})
	var spans []units.Time
	var total units.Time
	c.AdvanceTo(5*units.Second, func(from, to units.Time) {
		if to <= from {
			t.Errorf("bad span %v..%v", from, to)
		}
		spans = append(spans, to-from)
		total += to - from
	})
	if total != 5*units.Second {
		t.Errorf("hook covered %v of 5s", total)
	}
	if c.Now() != 5*units.Second {
		t.Errorf("clock at %v", c.Now())
	}
	if len(spans) != 3 { // 0→1, 1→3, 3→5
		t.Errorf("spans = %v", spans)
	}
}

func TestAdvanceToNoEvents(t *testing.T) {
	var c Clock
	called := false
	c.AdvanceTo(units.Second, func(from, to units.Time) {
		called = true
		if from != 0 || to != units.Second {
			t.Errorf("span %v..%v", from, to)
		}
	})
	if !called {
		t.Error("hook not called for event-free span")
	}
}

func TestAdvanceToBackwardsPanics(t *testing.T) {
	var c Clock
	c.AdvanceTo(units.Second, nil)
	defer func() {
		if recover() == nil {
			t.Error("backwards AdvanceTo did not panic")
		}
	}()
	c.AdvanceTo(500*units.Millisecond, nil)
}

func TestPeekTimeReapsCancelled(t *testing.T) {
	var c Clock
	e := c.Schedule(units.Second, "x", func(units.Time) {})
	c.Schedule(2*units.Second, "y", func(units.Time) {})
	c.Cancel(e)
	at, ok := c.PeekTime()
	if !ok || at != 2*units.Second {
		t.Errorf("PeekTime = %v, %v", at, ok)
	}
}

func TestStepEmpty(t *testing.T) {
	var c Clock
	if c.Step() {
		t.Error("Step on empty queue returned true")
	}
	if c.Pending() != 0 {
		t.Error("Pending != 0 on empty clock")
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	var c Clock
	a := c.Schedule(units.Second, "a", func(units.Time) {})
	c.Schedule(2*units.Second, "b", func(units.Time) {})
	c.Cancel(a)
	if c.Pending() != 1 {
		t.Errorf("Pending() = %d after Cancel, want 1", c.Pending())
	}
	c.Reschedule(a, 3*units.Second)
	if a.Cancelled() {
		t.Error("re-armed event still reports cancelled")
	}
	if c.Pending() != 2 {
		t.Errorf("Pending() = %d after re-arm, want 2", c.Pending())
	}
}

func TestRescheduleOwnedEvent(t *testing.T) {
	var c Clock
	var log []string
	var own Event
	own.Label = "own"
	own.Fire = func(now units.Time) {
		log = append(log, "own")
		if now < 3*units.Second {
			c.Reschedule(&own, now+units.Second) // re-arm from inside Fire
		}
	}
	c.Reschedule(&own, 2*units.Second)
	c.Schedule(units.Second, "a", func(units.Time) { log = append(log, "a") })
	c.Reschedule(&own, units.Second) // moves the pending event; takes a later seq than "a"
	if c.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2: a pending event must move, not duplicate", c.Pending())
	}
	for c.Step() {
	}
	want := []string{"a", "own", "own", "own"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	if c.Now() != 3*units.Second {
		t.Errorf("clock at %v", c.Now())
	}
}

func TestReschedulePastPanics(t *testing.T) {
	var c Clock
	c.AdvanceTo(units.Second, nil)
	e := Event{Label: "late", Fire: func(units.Time) {}}
	defer func() {
		if recover() == nil {
			t.Error("rescheduling into the past did not panic")
		}
	}()
	c.Reschedule(&e, 500*units.Millisecond)
}

// refQueue is the naive reference for the clock's firing order: every live
// event with the (At, seq) key the clock's contract assigns it, searched by
// linear scan.
type refQueue struct {
	live  map[*Event][2]uint64 // At, seq
	nexts uint64
}

func (r *refQueue) arm(e *Event, at units.Time) {
	r.live[e] = [2]uint64{uint64(at), r.nexts}
	r.nexts++
}

func (r *refQueue) next() (*Event, units.Time, bool) {
	var best *Event
	var key [2]uint64
	for e, k := range r.live {
		if best == nil || k[0] < key[0] || (k[0] == key[0] && k[1] < key[1]) {
			best, key = e, k
		}
	}
	return best, units.Time(key[0]), best != nil
}

// TestClockMatchesSortedReference drives random sequences of Schedule,
// Reschedule (of pending, fired and cancelled events, and from inside an
// event's own Fire), Cancel, Step and AdvanceTo, and checks every firing
// against the naive reference: the earliest live event by (At, seq), where
// every Schedule and Reschedule takes the next sequence number.
func TestClockMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		var c Clock
		ref := &refQueue{live: map[*Event][2]uint64{}}
		var events []*Event // every event ever armed, owned or one-shot
		fired := 0
		delay := func() units.Time { return units.Time(r.Intn(4)) * units.Millisecond } // small: many ties
		arm := func(e *Event, at units.Time) {
			c.Reschedule(e, at)
			ref.arm(e, at)
		}
		var fire func(e *Event) func(now units.Time)
		fire = func(e *Event) func(now units.Time) {
			return func(now units.Time) {
				want, at, ok := ref.next()
				if !ok || want != e || at != now {
					t.Fatalf("seed %d: fired %q at %v, reference wants %v at %v", seed, e.Label, now, want, at)
				}
				delete(ref.live, e)
				fired++
				switch r.Intn(4) {
				case 0:
					arm(e, now+delay()) // re-arm from inside Fire
				case 1:
					n := &Event{Label: "child"}
					n.Fire = fire(n)
					events = append(events, n)
					arm(n, now+delay())
				}
			}
		}
		owned := make([]Event, 6)
		for i := range owned {
			e := &owned[i]
			e.Label = "owned"
			e.Fire = fire(e)
			events = append(events, e)
		}
		for op := 0; op < 300; op++ {
			switch k := r.Intn(10); {
			case k < 2:
				var e *Event
				e = c.Schedule(c.Now()+delay(), "one-shot", func(now units.Time) { fire(e)(now) })
				ref.arm(e, e.At)
				events = append(events, e)
			case k < 5: // pending or not: move or re-queue
				arm(events[r.Intn(len(events))], c.Now()+delay())
			case k < 6:
				e := events[r.Intn(len(events))]
				c.Cancel(e)
				delete(ref.live, e)
				if !e.Cancelled() {
					t.Fatalf("seed %d: Cancel did not mark the event", seed)
				}
				if r.Bernoulli(0.5) {
					arm(e, c.Now()+delay())
				}
			case k < 8:
				c.Step()
			default:
				to := c.Now() + delay()
				c.AdvanceTo(to, nil)
				if _, at, ok := ref.next(); ok && at <= to {
					t.Fatalf("seed %d: event at %v left queued after AdvanceTo(%v)", seed, at, to)
				}
			}
			if c.Pending() != len(ref.live) {
				t.Fatalf("seed %d op %d: Pending() = %d, reference holds %d live events", seed, op, c.Pending(), len(ref.live))
			}
			_, want, ok := ref.next()
			if got, gok := c.PeekTime(); gok != ok || got != want {
				t.Fatalf("seed %d: PeekTime = %v,%v, reference %v,%v", seed, got, gok, want, ok)
			}
		}
		for c.Step() {
		}
		if len(ref.live) != 0 || uint64(fired) != c.Fired() {
			t.Fatalf("seed %d: drained with %d reference events live, fired %d vs Fired() %d", seed, len(ref.live), fired, c.Fired())
		}
	}
}

// BenchmarkClockRearm is the cost of one arm → fire cycle of an owned event
// on a 64-event heap.
func BenchmarkClockRearm(b *testing.B) {
	var c Clock
	bg := make([]Event, 63)
	for i := range bg {
		bg[i].Fire = func(units.Time) {}
		c.Reschedule(&bg[i], units.Time(1<<60)+units.Time(i))
	}
	own := Event{Fire: func(units.Time) {}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reschedule(&own, c.Now()+units.Microsecond)
		c.Step()
	}
}
