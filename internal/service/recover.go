package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// recoveredJob is one job's state folded from its journal records.
type recoveredJob struct {
	rec      journalRecord // the "submitted" record (request + identity)
	state    string
	errMsg   string
	degraded bool
	started  time.Time
	finished time.Time
}

// recoverFromJournal rebuilds the daemon's job table from a replayed journal.
// It runs during Open, before the worker pool starts, so it owns every
// structure it touches.
//
// The fold is by last-writer-wins over each job's records, then:
//
//   - done jobs whose artifact file is present restore as terminal cache
//     entries — the result cache is warm across the restart, and an identical
//     resubmission hits without simulating;
//   - failed/canceled jobs restore as terminal records;
//   - everything else — queued, running, or done-with-a-lost-artifact — is
//     re-resolved from its submitted record and re-enqueued, resuming from
//     its resume log when one survives. Determinism makes this
//     sound: the rerun produces byte-identical output, so "lost the race to
//     finish before the crash" degrades to spent CPU, never to divergent
//     results.
//
// Re-resolution recomputes the content key and compares it to the journaled
// one; a mismatch means the daemon restarted into a different world (catalog
// edit, engine integrator change) and the job fails loudly instead of
// silently computing something else under the old name.
func (s *Service) recoverFromJournal(rep storeReplay) {
	byID := map[string]*recoveredJob{}
	var order []string
	for _, rec := range rep.records {
		switch rec.Op {
		case "submitted":
			if _, ok := byID[rec.ID]; ok {
				continue // duplicate submission record; first wins
			}
			byID[rec.ID] = &recoveredJob{rec: rec, state: StateQueued}
			order = append(order, rec.ID)
			var n int
			if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n > s.seq {
				s.seq = n
			}
		case "started":
			if rj, ok := byID[rec.ID]; ok && !terminalState(rj.state) {
				rj.state = StateRunning
				rj.started = rec.At
			}
		case "done":
			if rj, ok := byID[rec.ID]; ok {
				rj.state = StateDone
				rj.degraded = rec.Degraded
				rj.finished = rec.At
			}
		case "failed", "canceled":
			if rj, ok := byID[rec.ID]; ok {
				if rec.Op == "failed" {
					rj.state = StateFailed
				} else {
					rj.state = StateCanceled
				}
				rj.errMsg = rec.Error
				rj.finished = rec.At
			}
		}
	}

	for _, id := range order {
		rj := byID[id]
		name := rj.rec.JobName
		if name == "" {
			name = rj.rec.Name
		}
		j := &Job{
			ID:     id,
			Key:    rj.rec.Key,
			kind:   rj.rec.Kind,
			name:   name,
			policy: rj.rec.Policy,
			scale:  rj.rec.Scale,
			stream: s.jobStream(),
		}
		j.submitted = rj.rec.At
		j.started = rj.started
		j.finished = rj.finished
		j.cacheHit = rj.rec.CacheHit

		switch rj.state {
		case StateDone:
			if art, ok := s.store.loadArtifact(rj.rec.Key); ok {
				j.state = StateDone
				j.degraded = rj.degraded
				j.artifact = art
				s.cache.put(j.Key, art)
				s.emit(j, Event{Type: "state", Job: id, State: StateDone}, Event{Type: "done", Job: id, State: StateDone})
				break
			}
			// The journal says done but the artifact is gone (lost rename,
			// operator deletion). Recompute rather than serve a hole.
			s.requeueRecovered(j, rj)
		case StateFailed, StateCanceled:
			j.state = rj.state
			j.err = rj.errMsg
			s.emit(j, Event{Type: "error", Job: id, State: rj.state, Error: rj.errMsg})
		default: // queued or running at the crash
			s.requeueRecovered(j, rj)
		}
		s.track(j)
	}

	// Only requeued jobs' open resume logs survive boot. The rest is stale:
	// logs of terminal jobs or of submissions that never became durable, and
	// older daemons' <id>.json tokens (those jobs rerun from scratch).
	dir := filepath.Join(s.store.dir, "checkpoints")
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if j := s.jobs[strings.TrimSuffix(e.Name(), ".wal")]; j == nil || j.resume == nil {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// requeueRecovered re-resolves a recovered in-flight job and puts it back on
// the queue, attaching any surviving resume token. On any impossibility —
// unresolvable request, key drift, full queue — the job fails with a message
// naming the cause; recovery itself never aborts the boot.
func (s *Service) requeueRecovered(j *Job, rj *recoveredJob) {
	fail := func(msg string) {
		j.state = StateFailed
		j.err = msg
		j.finished = time.Now()
		s.met.failed.Add(1)
		s.journal(journalRecord{Op: "failed", ID: j.ID, At: j.finished, Error: msg}, true)
		s.dropResume(j)
		s.emit(j, Event{Type: "error", Job: j.ID, State: StateFailed, Error: msg})
	}

	r, err := s.resolve(Request{
		Kind:   rj.rec.Kind,
		Name:   rj.rec.Name,
		Spec:   json.RawMessage(rj.rec.Spec),
		Policy: rj.rec.Policy,
		Scale:  rj.rec.Scale,
	})
	if err != nil {
		fail(fmt.Sprintf("recovery: re-resolving journaled request: %v", err))
		return
	}
	if r.key != rj.rec.Key {
		fail(fmt.Sprintf("recovery: content key drifted across restart (journal %s, now %s): catalog or integrator changed", shortKey(rj.rec.Key), shortKey(r.key)))
		return
	}
	j.res = r
	j.recovered = true
	j.cacheHit = false
	j.started, j.finished = time.Time{}, time.Time{}
	s.openResume(j) // the surviving resume log becomes the job's token

	j.state = StateQueued
	// Same ordering discipline as Submit: the trace and queue span exist
	// before the send publishes the job to any worker. (Recovery actually
	// runs before the pool starts, but the invariant is cheap to keep.)
	j.trace = obs.NewTracer()
	j.trace.SetSink(s.spanSink(j.ID))
	j.trace.Instant("recovered", "lifecycle", 0)
	j.enqueued = time.Now()
	j.queueSpan = j.trace.Start("queue", "lifecycle", 0)
	select {
	case s.queue <- j:
	default:
		fail("recovery: admission queue full; resubmit the job")
		return
	}
	s.met.recovered.Add(1)
	s.emit(j, Event{Type: "state", Job: j.ID, State: StateQueued},
		Event{Type: "recovered", Job: j.ID, State: StateQueued, Resumed: j.checkpointProgress()})
}

// checkpointProgress summarises how much of the job its resume token lets
// the rerun skip or verify-replay, for the "recovered" stream event.
func (j *Job) checkpointProgress() string {
	cp := j.resumeToken()
	switch {
	case cp == nil:
		return "from scratch"
	case cp.Sched != nil:
		return fmt.Sprintf("replay to round %d", cp.Sched.Round)
	default:
		return fmt.Sprintf("%d machines precomputed", len(cp.Machines))
	}
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}
