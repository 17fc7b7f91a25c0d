package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCancelRacesCheckpointWrites aims job cancellation at every phase of a
// checkpointing scheduled run: the engine's runner.MapCtx workers observe the
// cancel at metric ticks while the round barrier may be mid-checkpoint. The
// invariants under fire: no torn or orphaned temp files among the artifacts,
// terminal jobs keep no resume log or token, and the daemon stays
// serviceable. Run with -race in CI — the
// interesting failures here are data races between the cancel path and the
// checkpoint writer.
func TestCancelRacesCheckpointWrites(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{Workers: 2, DefaultScale: 1, CheckpointEvery: 1})

	// Staggered cancel delays sweep the race window: from "before the first
	// round barrier" to "after several checkpoints have been written".
	for i, delay := range []time.Duration{0, 200 * time.Microsecond, time.Millisecond,
		3 * time.Millisecond, 8 * time.Millisecond, 20 * time.Millisecond} {
		j, err := svc.Submit(Request{Spec: schedSpec("cancel-race"), Scale: 1})
		if err != nil {
			t.Fatalf("iteration %d: submit: %v", i, err)
		}
		time.Sleep(delay)
		if err := svc.Cancel(j.ID); err != nil {
			t.Fatalf("iteration %d: cancel: %v", i, err)
		}
		v := waitTerminal(t, j)
		if v.State != StateCanceled && v.State != StateDone { // done: cancel lost the race — fine
			t.Fatalf("iteration %d: state %s (%s), want canceled or done", i, v.State, v.Error)
		}

		ents, err := os.ReadDir(filepath.Join(dir, "artifacts"))
		if err != nil {
			t.Fatalf("read artifacts: %v", err)
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("iteration %d: torn temp file left behind: artifacts/%s", i, e.Name())
			}
			raw, err := os.ReadFile(filepath.Join(dir, "artifacts", e.Name()))
			if err != nil {
				t.Fatalf("read artifacts/%s: %v", e.Name(), err)
			}
			if !json.Valid(raw) {
				t.Fatalf("iteration %d: artifacts/%s is not valid JSON (torn write)", i, e.Name())
			}
		}
		// Terminal jobs surrender their resume log, and no other job is in
		// flight to hold one.
		if ents, err := os.ReadDir(filepath.Join(dir, "checkpoints")); err != nil || len(ents) != 0 {
			t.Fatalf("iteration %d: checkpoints dir after a terminal job: %d entries (%v)", i, len(ents), err)
		}
		if cp := j.resumeToken(); cp != nil {
			t.Fatalf("iteration %d: terminal job still holds a resume token", i)
		}
		// The cache key must not be poisoned by the cancellation: a fresh
		// submission of the same work still runs (or hits a completed run).
		if v.State == StateCanceled && j.View().CacheHit {
			t.Fatalf("iteration %d: canceled job claims a cache hit", i)
		}
	}

	// The daemon survived the barrage: one more run to completion.
	j, err := svc.Submit(Request{Spec: schedSpec("cancel-race-final"), Scale: 1})
	if err != nil {
		t.Fatalf("final submit: %v", err)
	}
	if v := waitTerminal(t, j); v.State != StateDone {
		t.Fatalf("final run: %s (%s)", v.State, v.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
