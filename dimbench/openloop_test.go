package main

import (
	"testing"
	"time"
)

// fakeClock moves only when the generator sleeps or a fake request spends
// time, so the accounting is checked without wall-clock sleeps.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestLaneTimesRequestsFromTheirDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	m := time.Millisecond
	o := openLoop{clk: clk, start: start, every: 10 * m, lanes: 1, n: 4}
	cost := []time.Duration{25 * m, m, m, m}
	got := o.lane(0, func(k int) { clk.now = clk.now.Add(cost[k]) })
	// Request 0 overruns its slot, so 1 and 2 go out late and carry the
	// stall in their latency; 3 is back on schedule.
	want := []shot{{0, 0, 25 * m}, {1, 15 * m, 16 * m}, {2, 6 * m, 7 * m}, {3, 0, m}}
	if len(got) != len(want) {
		t.Fatalf("got %d shots, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shot %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestLanesShareTheScheduleRoundRobin(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	o := openLoop{clk: clk, start: start, every: 5 * time.Millisecond, lanes: 2, n: 7}
	var sent []int
	var at []time.Time
	shots := o.lane(1, func(k int) {
		sent = append(sent, k)
		at = append(at, clk.Now())
	})
	if len(sent) != 3 || sent[0] != 1 || sent[1] != 3 || sent[2] != 5 {
		t.Fatalf("lane 1 of 2 sent %v, want [1 3 5]", sent)
	}
	for i, k := range sent {
		if !at[i].Equal(o.due(k)) || shots[i].late != 0 {
			t.Errorf("request %d went out at %v (late %v), due %v", k, at[i], shots[i].late, o.due(k))
		}
	}
}
