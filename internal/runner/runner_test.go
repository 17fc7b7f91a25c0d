package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	specs := make([]int, 1000)
	for i := range specs {
		specs[i] = i * 3
	}
	for _, j := range []int{0, 1, 2, 7, 64} {
		got := Map(j, specs, func(i, s int) int { return s + i })
		for i, v := range got {
			if want := specs[i] + i; v != want {
				t.Fatalf("jobs=%d: res[%d] = %d, want %d", j, i, v, want)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(0, nil, func(i int, s struct{}) int { return 0 }); len(got) != 0 {
		t.Fatalf("empty Map returned %d results", len(got))
	}
}

func TestMapRunsEachTrialExactlyOnce(t *testing.T) {
	var calls [256]atomic.Int32
	specs := make([]int, len(calls))
	for i := range specs {
		specs[i] = i
	}
	Map(8, specs, func(i, s int) int {
		calls[i].Add(1)
		return 0
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("trial %d executed %d times", i, c)
		}
	}
}

func TestMapPanicSequentialWrapsToo(t *testing.T) {
	defer func() {
		tp, ok := recover().(*TrialPanic)
		if !ok || tp.Index != 2 || tp.Value != "serial-boom" {
			t.Fatalf("jobs=1 panic = %+v, want *TrialPanic for trial 2", tp)
		}
	}()
	Map(1, []int{0, 1, 2}, func(i, s int) int {
		if i == 2 {
			panic("serial-boom")
		}
		return 0
	})
}

func TestMapPanicLowestIndexWins(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		tp, ok := r.(*TrialPanic)
		if !ok {
			t.Fatalf("panic value %T, want *TrialPanic", r)
		}
		// Early abort means later panicking trials may be skipped; the
		// reported panic is the lowest-index one among those that ran,
		// which is always a genuinely failing trial (>= 3 here).
		if tp.Index < 3 || tp.Value != "boom-"+string(rune('0'+tp.Index)) {
			t.Fatalf("panic = trial %d value %v, want a failing trial >= 3", tp.Index, tp.Value)
		}
		if !strings.Contains(tp.Error(), "panicked: boom-") || len(tp.Stack) == 0 {
			t.Fatalf("TrialPanic.Error() = %q, want index, value and stack", tp.Error())
		}
	}()
	specs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	Map(8, specs, func(i, s int) int {
		if i >= 3 {
			panic("boom-" + string(rune('0'+i)))
		}
		return 0
	})
}

func TestCollect(t *testing.T) {
	got := Collect(4,
		func() string { return "a" },
		func() string { return "b" },
		func() string { return "c" },
	)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("Collect = %v", got)
	}
}

// TestJobsDefaults pins the pool-size argument: a positive size bounds the
// workers exactly, and 0 or a negative size selects GOMAXPROCS.
func TestJobsDefaults(t *testing.T) {
	for _, c := range []struct{ jobs, want int }{
		{3, 3},
		{0, runtime.GOMAXPROCS(0)},
		{-5, runtime.GOMAXPROCS(0)},
	} {
		if got := peakWorkers(t, c.jobs, c.want); got != c.want {
			t.Errorf("jobs=%d: %d concurrent workers, want %d", c.jobs, got, c.want)
		}
	}
}

// peakWorkers fans 4·want trials out across a pool of jobs workers and
// returns the most that ever ran at once. Each trial holds its worker until
// want trials have started, so a pool of exactly want workers peaks at want,
// a larger pool overshoots it and a smaller one stalls below it until the
// escape deadline.
func peakWorkers(t *testing.T, jobs, want int) int {
	t.Helper()
	var active, peak, started atomic.Int64
	Map(jobs, make([]int, 4*want), func(int, int) int {
		a := active.Add(1)
		for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
		}
		started.Add(1)
		for deadline := time.Now().Add(5 * time.Second); started.Load() < int64(want) && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		active.Add(-1)
		return 0
	})
	return int(peak.Load())
}

func TestMapErrReportsFailingTrialAndKeepsCompletedResults(t *testing.T) {
	specs := make([]int, 100)
	for i := range specs {
		specs[i] = i
	}
	var ran atomic.Int64
	res, err := MapErr(4, specs, func(i int, v int) (int, error) {
		ran.Add(1)
		if v == 17 || v == 60 {
			return 0, fmt.Errorf("boom at %d", v)
		}
		return v * 2, nil
	})
	if err == nil || !(strings.Contains(err.Error(), "trial 17") || strings.Contains(err.Error(), "trial 60")) {
		t.Fatalf("err = %v, want a failing trial", err)
	}
	// Every trial that completed without error must have its result filled;
	// skipped trials hold the zero value.
	for i, v := range res {
		if v != 0 && v != i*2 {
			t.Errorf("res[%d] = %d, want 0 (skipped) or %d", i, v, i*2)
		}
	}
	if res[0] != 0 && res[1] != 2 {
		t.Errorf("early trials should have completed: res[:2] = %v", res[:2])
	}
}

// TestMapErrAbortsRemainingTrials pins the early-abort contract the fleet
// sweeps rely on: once a trial fails, unstarted trials are skipped instead of
// running the whole sweep. Sequential execution makes the count exact.
func TestMapErrAbortsRemainingTrials(t *testing.T) {
	specs := make([]int, 50)
	var ran atomic.Int64
	_, err := MapErr(1, specs, func(i int, _ int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, fmt.Errorf("boom")
		}
		return 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "trial 3") {
		t.Fatalf("err = %v, want trial 3", err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d trials after failure at index 3, want exactly 4", got)
	}
}

func TestMapErrCtxCancelledBeforeStartRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapErrCtx(ctx, 4, make([]int, 20), func(int, int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d trials ran under a pre-cancelled context", got)
	}
}

func TestMapErrCtxCancelMidSweepAbortsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	res, err := MapErrCtx(ctx, 1, make([]int, 50), func(i int, _ int) (int, error) {
		ran.Add(1)
		if i == 5 {
			cancel() // an external cancellation landing mid-sweep
		}
		return i + 1, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 6 {
		t.Fatalf("ran %d trials after cancel at index 5, want exactly 6", got)
	}
	// Completed trials keep their results even on the cancelled path.
	if res[5] != 6 {
		t.Fatalf("res[5] = %d, want 6", res[5])
	}
}

func TestMapCtxSuccessMatchesMap(t *testing.T) {
	specs := []int{1, 2, 3, 4, 5}
	res, err := MapCtx(context.Background(), 4, specs, func(_ int, v int) int { return v * v })
	if err != nil {
		t.Fatal(err)
	}
	want := Map(4, specs, func(_ int, v int) int { return v * v })
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("res = %v, want %v", res, want)
		}
	}
}

func TestMapErrNoError(t *testing.T) {
	res, err := MapErr(0, []int{1, 2, 3}, func(_ int, v int) (int, error) { return v + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0] != 2 || res[2] != 4 {
		t.Errorf("res = %v", res)
	}
}
