package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestStreamTrimKeepsSeq: cutting a closed stream to its terminal event keeps
// its numbering. Len does not move, a reader from Seq 0 is told 99 events
// were evicted and gets the terminal event at its own Seq, and wait never
// blocks on the cut stream — whether or not the ring had wrapped.
func TestStreamTrimKeepsSeq(t *testing.T) {
	for _, ring := range []int{16, 128} {
		st := newStream(ring, nil)
		for i := 0; i < 99; i++ {
			st.append(Event{Type: "telemetry"})
		}
		st.append(Event{Type: "done"})
		st.cut()

		if st.Len() != 100 {
			t.Fatalf("ring %d: Len = %d after the cut, want 100", ring, st.Len())
		}
		events, next, closed, evicted := st.since(0)
		if evicted != 99 || len(events) != 1 || next != 100 || !closed {
			t.Fatalf("ring %d: since(0) = %d events, next %d, closed %v, evicted %d; want the terminal event alone, next 100, closed, 99 evicted",
				ring, len(events), next, closed, evicted)
		}
		if e := events[0]; e.Seq != 99 || e.Type != "done" {
			t.Fatalf("ring %d: retained %+v, want the done event at Seq 99", ring, e)
		}
		if events, _, _, evicted := st.since(99); evicted != 0 || len(events) != 1 || events[0].Seq != 99 {
			t.Fatalf("ring %d: since(99) = %+v, %d evicted; want the terminal event alone", ring, events, evicted)
		}
		if events, next, _, evicted := st.since(100); evicted != 0 || len(events) != 0 || next != 100 {
			t.Fatalf("ring %d: since(100) = %+v, next %d, %d evicted; want nothing", ring, events, next, evicted)
		}
		for _, seq := range []int{0, 100} {
			select {
			case <-st.wait(seq):
			default:
				t.Fatalf("ring %d: wait(%d) blocks on a cut stream", ring, seq)
			}
		}
		st.append(Event{Type: "telemetry"})
		if st.Len() != 100 || st.retained() != 1 {
			t.Fatalf("ring %d: append after the cut changed the stream", ring)
		}
	}
}

// TestFinishedJobsShareOneEventBudget: an in-memory daemon whose finished
// jobs share a 64-event history. Jobs run one at a time, and each retains
// more than half the budget, so every finish cuts an older job. After each
// finish the finished jobs' events before their terminal events stay within
// the budget and dimd_stream_retained_events equals the events the rings
// hold. The newest job replays densely from Seq 0, the oldest as a gap and
// its terminal event, and no job's JobView.Events moves.
func TestFinishedJobsShareOneEventBudget(t *testing.T) {
	const budget, jobs = 64, 12
	svc, c := newTestService(t, Config{Workers: 1, DefaultScale: 1, MaxEvents: budget, TelemetryEvery: 1})

	var ids []string
	lens := map[string]int{}
	for i := 0; i < jobs; i++ {
		v, err := c.Submit(Request{Spec: tinySpec(fmt.Sprintf("budget-%d", i), 2, uint64(100+i))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		fin, err := c.Wait(context.Background(), v.ID)
		if err != nil || fin.State != StateDone {
			t.Fatalf("wait %s: %v (state %s)", v.ID, err, fin.State)
		}
		if fin.Events <= budget/2+1 || fin.Events > budget {
			t.Fatalf("%s emitted %d events; the test needs more than half the budget and no ring wrap", v.ID, fin.Events)
		}
		ids = append(ids, v.ID)
		lens[v.ID] = fin.Events
		// The one worker enters a finished job in the budget before it takes
		// the next from the queue, so every job before this one is settled.
		if held := finishedHistory(t, svc, ids[:i]); held > budget {
			t.Fatalf("after %s finished, jobs before it retain %d events before their terminal events, budget %d", v.ID, held, budget)
		}
		retainedGaugeAgrees(t, svc, c)
	}

	newest, oldest := ids[len(ids)-1], ids[0]
	events := replay(t, c, newest)
	if len(events) != lens[newest] {
		t.Fatalf("newest job replays %d events, want all %d", len(events), lens[newest])
	}
	for i, e := range events {
		if e.Seq != i || e.Type == "gap" {
			t.Fatalf("newest job's event %d is %+v: replay not dense from Seq 0", i, e)
		}
	}
	events = replay(t, c, oldest)
	if len(events) != 2 || events[0].Type != "gap" || events[0].Seq != 0 || events[0].Dropped != lens[oldest]-1 ||
		events[1].Type != "done" || events[1].Seq != lens[oldest]-1 {
		t.Fatalf("oldest job replays %+v, want a gap of %d and its done event", events, lens[oldest]-1)
	}
	for _, id := range ids {
		v, err := c.Job(id)
		if err != nil || v.Events != lens[id] {
			t.Fatalf("%s: JobView.Events = %d (%v), was %d when it finished", id, v.Events, err, lens[id])
		}
	}

	// Once drained, the last job is settled too.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if held := finishedHistory(t, svc, ids); held > budget {
		t.Fatalf("drained daemon's finished jobs retain %d events before their terminal events, budget %d", held, budget)
	}
	retainedGaugeAgrees(t, svc, c)
}

// finishedHistory sums the events the named finished jobs retain before
// their terminal events.
func finishedHistory(t *testing.T, svc *Service, ids []string) int {
	t.Helper()
	held := 0
	for _, id := range ids {
		j, err := svc.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		held += j.stream.retained() - 1
	}
	return held
}

// retainedGaugeAgrees checks dimd_stream_retained_events against the rings
// it sums. The newest job may still be entering the budget, and its cuts can
// land between the reads; cuts only shrink rings, so equal sums read before
// and after the scrape pin the scrape's value.
func retainedGaugeAgrees(t *testing.T, svc *Service, c *Client) {
	t.Helper()
	sum := func() int {
		n := 0
		for _, j := range svc.Jobs() {
			n += j.stream.retained()
		}
		return n
	}
	for {
		before := sum()
		text, err := c.Metrics()
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if sum() != before {
			continue
		}
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, "dimd_stream_retained_events "); ok {
				if got, err := strconv.Atoi(v); err != nil || got != before {
					t.Fatalf("dimd_stream_retained_events = %q, the rings hold %d", v, before)
				}
				return
			}
		}
		t.Fatalf("no dimd_stream_retained_events sample in:\n%s", text)
	}
}

// replay reads a finished job's whole stream.
func replay(t *testing.T, c *Client, id string) []Event {
	t.Helper()
	var events []Event
	if err := c.Stream(context.Background(), id, func(e Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatalf("stream %s: %v", id, err)
	}
	return events
}

// TestEvictedJobsLeaveTheBudget: a finished job that MaxJobs evicts leaves
// the history FIFO with its record, so the budget neither counts nor keeps
// reachable a stream the daemon no longer tracks.
func TestEvictedJobsLeaveTheBudget(t *testing.T) {
	svc, c := newTestService(t, Config{Workers: 1, DefaultScale: 1, MaxJobs: 2})
	for i := 0; i < 4; i++ {
		v, err := c.Submit(Request{Spec: tinySpec(fmt.Sprintf("evict-%d", i), 1, uint64(200+i))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := c.Wait(context.Background(), v.ID); err != nil {
			t.Fatalf("wait %s: %v", v.ID, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	tracked := map[*stream]bool{}
	for _, j := range svc.Jobs() {
		tracked[j.stream] = true
	}
	svc.hist.mu.Lock()
	defer svc.hist.mu.Unlock()
	held := 0
	for _, f := range svc.hist.fifo {
		if !tracked[f.st] {
			t.Fatalf("the history FIFO keeps the stream of an evicted job")
		}
		held += f.n
	}
	if len(svc.hist.fifo) != len(tracked) || held != svc.hist.held {
		t.Fatalf("FIFO holds %d streams with %d events (counted %d) for %d tracked jobs",
			len(svc.hist.fifo), held, svc.hist.held, len(tracked))
	}
}
