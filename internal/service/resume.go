package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fleetsched"
	"repro/internal/scenario"
	"repro/internal/wal"
)

// JobCheckpoint is an in-flight job's resume token, shaped by kind: scenario
// jobs accumulate completed per-machine results (independent machines —
// finished ones are simply not re-simulated); sched jobs carry the engine's
// round-barrier checkpoint (resume = verified deterministic replay).
// Experiment and sched-compare jobs carry nothing and re-run from scratch —
// they are deterministic, so the recomputed bytes are identical; only the
// spent CPU is lost.
//
// On disk the token is the job's resume log, checkpoints/<id>.wal, holding
// one JobCheckpoint record per finished machine or round checkpoint.
type JobCheckpoint struct {
	Kind     string                   `json:"kind"`
	Machines []scenario.MachineResult `json:"machines,omitempty"`
	Sched    *fleetsched.Checkpoint   `json:"sched,omitempty"`
}

// fold applies one resume-log record; the last sched checkpoint wins.
func (cp *JobCheckpoint) fold(rec *JobCheckpoint) {
	cp.Machines = append(cp.Machines, rec.Machines...)
	if rec.Sched != nil {
		cp.Sched = rec.Sched
	}
}

func (st *store) resumePath(jobID string) string {
	return filepath.Join(st.dir, "checkpoints", jobID+".wal")
}

// openResume opens (creating if absent) j's resume log unless it is open
// already, cutting any torn tail, and folds its intact records into the
// job's token. A log that fails to open is a WAL error, not a job failure.
func (s *Service) openResume(j *Job) {
	if j.resume != nil || s.store == nil || s.cfg.CheckpointEvery < 0 || (j.kind != KindScenario && j.kind != KindSched) {
		return
	}
	cp := &JobCheckpoint{Kind: j.kind}
	log, _, err := wal.Open(s.store.resumePath(j.ID), func(payload []byte) error {
		var rec JobCheckpoint
		if json.Unmarshal(payload, &rec) == nil {
			cp.fold(&rec)
		}
		return nil
	})
	if err != nil {
		s.met.walErrors.Add(1)
		return
	}
	j.resume = log
	j.stMu.Lock()
	j.checkpoint = cp
	j.stMu.Unlock()
}

// resumeWriter is a running job's group-commit writer for its resume log.
// Engine hooks marshal a record on their own goroutine, queue it with the
// stream event that announces it, and return at once. One goroutine takes
// everything queued while the previous fsync ran, appends it, syncs once,
// folds the batch into the job's token and only then announces it: nothing
// is announced, and the snapshot shows nothing, that a crash could lose.
// Without a resume log (in-memory daemons, unresumable kinds) there is no
// goroutine and record announces at once.
type resumeWriter struct {
	s *Service
	j *Job

	mu       sync.Mutex
	queue    []pendingRecord // at most the job's own record count
	stopping bool
	wake     chan struct{} // buffered 1: the queue or stopping changed
	done     chan struct{} // closed when the goroutine exits

	// failed is set, by the goroutine only, once a batch fails to write. A
	// failed append can leave a torn frame that ends the log's replay, and a
	// failed fsync leaves what it covered in doubt, so nothing after either
	// could be relied on: later batches are not written.
	failed bool
}

// pendingRecord is one queued record: its encoded payload, the value folded
// into the token once it is durable, and the event announcing it (nil for
// sched checkpoints, which nothing announces).
type pendingRecord struct {
	raw []byte
	rec JobCheckpoint
	ev  *Event
}

// startResumeWriter starts j's writer. execute runs it for the span of the
// engine run and stops it before returning, so every record is durable and
// announced before the job's terminal state, and none is appended after
// dropResume.
func (s *Service) startResumeWriter(j *Job) *resumeWriter {
	w := &resumeWriter{s: s, j: j}
	if j.resume != nil {
		w.wake = make(chan struct{}, 1)
		w.done = make(chan struct{})
		go w.run()
	}
	return w
}

// record queues rec and the event announcing it; an engine hook calls it
// and never waits on the disk.
func (w *resumeWriter) record(rec JobCheckpoint, ev *Event) {
	if w.done == nil {
		w.announce(ev)
		return
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		w.s.met.walErrors.Add(1)
		w.announce(ev)
		return
	}
	w.mu.Lock()
	w.queue = append(w.queue, pendingRecord{raw: raw, rec: rec, ev: ev})
	w.mu.Unlock()
	w.signal()
}

// stop commits what is still queued and waits for the goroutine to exit.
// The engine's hooks must have returned.
func (w *resumeWriter) stop() {
	if w.done == nil {
		return
	}
	w.mu.Lock()
	w.stopping = true
	w.mu.Unlock()
	w.signal()
	<-w.done
}

func (w *resumeWriter) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *resumeWriter) announce(ev *Event) {
	if ev != nil {
		w.s.emit(w.j, *ev)
	}
}

// The engine hooks every arm of execute shares: a telemetry sample or a
// round barrier is emitted at once, and a finished machine is recorded and
// announced once durable.

func (w *resumeWriter) telemetry(sm scenario.MachineSample) {
	w.s.emit(w.j, Event{Type: "telemetry", Job: w.j.ID, Machine: sampleEvent(sm)})
}

func (w *resumeWriter) round(rt fleetsched.RoundTelemetry) {
	w.s.emit(w.j, Event{Type: "round", Job: w.j.ID, Round: &rt})
}

func (w *resumeWriter) machine(m scenario.MachineResult) {
	w.record(JobCheckpoint{Kind: KindScenario, Machines: []scenario.MachineResult{m}},
		&Event{Type: "machine", Job: w.j.ID, Machine: machineEvent(m)})
}

func (w *resumeWriter) run() {
	defer close(w.done)
	var batch []pendingRecord
	for {
		<-w.wake
		w.mu.Lock()
		batch, w.queue = w.queue, batch
		stopping := w.stopping
		w.mu.Unlock()
		if len(batch) > 0 {
			w.commit(batch)
		}
		clear(batch)
		batch = batch[:0]
		if stopping {
			return
		}
	}
}

// commit makes one batch durable with a single fsync, folds it into the
// token and announces it. A batch that fails to write, or follows one that
// did, is one WAL error; its events are still announced, but the token never
// claims it.
func (w *resumeWriter) commit(batch []pendingRecord) {
	j := w.j
	sp := j.trace.Start("checkpoint", "lifecycle", 0)
	for _, p := range batch {
		if w.failed {
			break
		}
		w.failed = j.resume.Append(p.raw) != nil
	}
	if !w.failed {
		w.failed = j.resume.Sync() != nil
	}
	sp.End()
	if w.failed {
		w.s.met.walErrors.Add(1)
	} else {
		w.s.met.checkpoints.Add(int64(len(batch)))
		j.stMu.Lock()
		for i := range batch {
			j.checkpoint.fold(&batch[i].rec)
		}
		j.stMu.Unlock()
	}
	evs := make([]Event, 0, len(batch))
	for _, p := range batch {
		if p.ev != nil {
			evs = append(evs, *p.ev)
		}
	}
	w.s.emit(j, evs...)
}

// dropResume closes and deletes j's resume log and clears its token.
func (s *Service) dropResume(j *Job) {
	if s.store == nil {
		return
	}
	if j.resume != nil {
		_ = j.resume.Close()
		j.resume = nil
	}
	_ = os.Remove(s.store.resumePath(j.ID))
	j.stMu.Lock()
	j.checkpoint = nil
	j.stMu.Unlock()
}

// resumeMachines returns a scenario job's recovered machines for the rerun
// to skip, re-emitting each so a resumed stream, and every view folded from
// it, still carries them all.
func (s *Service) resumeMachines(j *Job) []scenario.MachineResult {
	cp := j.resumeToken()
	if cp == nil || len(cp.Machines) == 0 {
		return nil
	}
	for _, m := range cp.Machines {
		s.emit(j, Event{Type: "machine", Job: j.ID, Machine: machineEvent(m)})
	}
	s.met.resumes.Add(1)
	return cp.Machines
}

// resumeToken returns the job's token as the engines and the snapshot take
// it, machines deduplicated by index and sorted; nil when it holds nothing.
func (j *Job) resumeToken() *JobCheckpoint {
	j.stMu.Lock()
	defer j.stMu.Unlock()
	cp := j.checkpoint
	if cp == nil || (len(cp.Machines) == 0 && cp.Sched == nil) {
		return nil
	}
	ms := append([]scenario.MachineResult(nil), cp.Machines...)
	sort.Slice(ms, func(a, b int) bool { return ms[a].Index < ms[b].Index })
	out := &JobCheckpoint{Kind: cp.Kind, Sched: cp.Sched}
	for i, m := range ms {
		if i == 0 || m.Index != ms[i-1].Index { // determinism makes a machine's records equal
			out.Machines = append(out.Machines, m)
		}
	}
	return out
}
