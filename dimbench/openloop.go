package main

import (
	"sort"
	"sync"
	"time"
)

// clock is the open-loop generator's time source. Tests inject a fake one,
// so due-time and lateness accounting is checked without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time         { return time.Now() }
func (wallClock) SleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// openLoop sends n requests on a fixed schedule — request k is due at
// start + k·every whether or not earlier ones have finished — dealt
// round-robin over lanes. A lane sends each request at its due time, or as
// soon as it is free when it runs behind, and every request is timed from
// its due time, so a stall is charged to the requests it delays.
type openLoop struct {
	clk   clock
	start time.Time
	every time.Duration
	lanes int
	n     int
}

// shot is one request's timing, measured from its due time: how late it
// was sent, and when it completed.
type shot struct {
	k       int
	late    time.Duration
	latency time.Duration
}

func (o openLoop) due(k int) time.Time { return o.start.Add(time.Duration(k) * o.every) }

// lane sends lane l's share of the schedule, in order.
func (o openLoop) lane(l int, send func(k int)) []shot {
	var out []shot
	for k := l; k < o.n; k += o.lanes {
		due := o.due(k)
		o.clk.SleepUntil(due)
		sent := o.clk.Now()
		send(k)
		out = append(out, shot{k: k, late: sent.Sub(due), latency: o.clk.Now().Sub(due)})
	}
	return out
}

// run drives every lane at once and returns all shots in schedule order.
func (o openLoop) run(send func(k int)) []shot {
	per := make([][]shot, o.lanes)
	var wg sync.WaitGroup
	for l := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[l] = o.lane(l, send)
		}()
	}
	wg.Wait()
	var all []shot
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].k < all[b].k })
	return all
}
