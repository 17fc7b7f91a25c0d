// Package runner is the deterministic trial-sweep engine behind every
// experiment harness: it fans a slice of independent trial specifications out
// across a worker pool and returns the results in submission order.
//
// Determinism is the load-bearing property. The paper's evaluation is
// reproduced by sweeps of self-contained simulations — each trial builds its
// own machine from an explicit seed derived from the trial's identity (never
// drawn from a shared RNG stream) — so executing them concurrently cannot
// perturb any result, and collecting results by submission index makes the
// rendered output byte-identical at any parallelism level. The regression
// test in internal/experiments pins exactly that: -jobs 1 and -jobs 8 must
// render the same bytes.
//
// Every sweep takes its pool size as the first argument — the caller's
// engine.Config.Jobs — and a size of 0 or less selects GOMAXPROCS.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// TrialPanic carries a panic out of a worker so Map can re-raise it on the
// calling goroutine with the trial index, the original panic value, and the
// failing trial's stack trace attached.
type TrialPanic struct {
	Index int
	Value any
	Stack []byte
}

// Error formats the panic with the originating trial's stack, which would
// otherwise be lost when the panic crosses the worker boundary.
func (p *TrialPanic) Error() string {
	return fmt.Sprintf("runner: trial %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// mapCore is the shared fan-out engine behind Map, MapCtx, MapErr and
// MapErrCtx. It executes fn(i, specs[i]) across the worker pool with
// early-abort semantics: the first trial error, trial panic, or context
// cancellation stops workers from claiming further trials (trials already in
// flight run to completion — a simulation mid-step has no safe interruption
// point). Results of completed error-free trials are always filled.
//
// Failure reporting is deterministic where it can be: among the trials that
// actually ran, the lowest-index panic wins over any error, and the
// lowest-index error is the one returned. (Which trials run after an abort
// depends on scheduling; on the success path, output remains byte-identical
// at any parallelism level.) Context cancellation surfaces as ctx.Err().
func mapCore[S, R any](ctx context.Context, workers int, specs []S, fn func(i int, spec S) (R, error)) ([]R, error) {
	n := len(specs)
	res := make([]R, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		aborted  atomic.Bool
		errMu    sync.Mutex
		firstErr error
		errIdx   int
		panicked *TrialPanic
	)
	recordErr := func(i int, err error) {
		errMu.Lock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
		errMu.Unlock()
		aborted.Store(true)
	}
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				tp := &TrialPanic{Index: i, Value: r, Stack: debug.Stack()}
				errMu.Lock()
				if panicked == nil || i < panicked.Index {
					panicked = tp
				}
				errMu.Unlock()
				aborted.Store(true)
			}
		}()
		r, err := fn(i, specs[i])
		if err != nil {
			recordErr(i, fmt.Errorf("runner: trial %d: %w", i, err))
			return
		}
		res[i] = r
	}
	claimable := func() bool {
		if aborted.Load() {
			return false
		}
		if ctx != nil {
			select {
			case <-ctx.Done():
				return false
			default:
			}
		}
		return true
	}

	if workers <= 1 {
		for i := range specs {
			if !claimable() {
				break
			}
			runOne(i)
		}
	} else {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for claimable() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}

	if panicked != nil {
		panic(panicked)
	}
	if firstErr != nil {
		return res, firstErr
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("runner: sweep cancelled: %w", err)
		}
	}
	return res, nil
}

// Map executes fn(i, specs[i]) for every spec across a pool of jobs workers and
// returns the results indexed exactly like specs. fn must be self-contained:
// it may read shared immutable data (the baseline result, the grid) but must
// derive all stochastic state from the spec itself.
//
// If any trial panics, workers stop claiming further trials and Map re-panics
// on the caller's goroutine after all in-flight trials have drained, raising
// the panic of the lowest trial index that ran.
func Map[S, R any](jobs int, specs []S, fn func(i int, spec S) R) []R {
	res, _ := mapCore(nil, jobs, specs, func(i int, s S) (R, error) {
		return fn(i, s), nil
	})
	return res
}

// MapCtx is Map under a context: cancellation stops workers from claiming
// further trials and surfaces as a non-nil error. Trials already in flight
// run to completion (a trial is a pure simulation with no blocking points to
// interrupt); results of trials completed before the cancellation are filled.
func MapCtx[S, R any](ctx context.Context, jobs int, specs []S, fn func(i int, spec S) R) ([]R, error) {
	return mapCore(ctx, jobs, specs, func(i int, s S) (R, error) {
		return fn(i, s), nil
	})
}

// MapErr is Map for fallible trials: fn may additionally return an error. The
// first failure aborts the remaining fan-out promptly — trials not yet
// started are skipped — and the returned error is the lowest-index error
// among the trials that ran (wrapped with that index). Results of completed
// error-free trials are filled regardless.
func MapErr[S, R any](jobs int, specs []S, fn func(i int, spec S) (R, error)) ([]R, error) {
	return mapCore(nil, jobs, specs, fn)
}

// MapErrCtx is MapErr under a context: a failing trial or a cancelled context
// aborts the remaining fan-out promptly. A trial error takes precedence over
// the cancellation error when both occur.
func MapErrCtx[S, R any](ctx context.Context, jobs int, specs []S, fn func(i int, spec S) (R, error)) ([]R, error) {
	return mapCore(ctx, jobs, specs, fn)
}

// Collect runs a fixed set of heterogeneous thunks concurrently and returns
// their results in order — sugar over Map for the "baseline plus a couple of
// arms" shape that several harnesses have.
func Collect[R any](jobs int, thunks ...func() R) []R {
	return Map(jobs, thunks, func(_ int, f func() R) R { return f() })
}
