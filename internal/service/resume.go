package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

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

// record is the one checkpoint writer for execute's resumable arms. It folds
// rec into the token only once rec is durable (concurrent engine goroutines
// share fsyncs), so the snapshot never shows progress a crash could lose.
func (s *Service) record(j *Job, rec JobCheckpoint) {
	if j.resume == nil {
		return
	}
	sp := j.trace.Start("checkpoint", "lifecycle", 0)
	raw, err := json.Marshal(rec)
	if err == nil {
		if err = j.resume.Append(raw); err == nil {
			err = j.resume.Sync()
		}
	}
	sp.End()
	if err != nil {
		s.met.walErrors.Add(1)
		return
	}
	s.met.checkpoints.Add(1)
	j.stMu.Lock()
	j.checkpoint.fold(&rec)
	j.stMu.Unlock()
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
// to skip, re-emitting each so a resumed stream still carries them all.
func (s *Service) resumeMachines(j *Job) []scenario.MachineResult {
	cp := j.resumeToken()
	if cp == nil || len(cp.Machines) == 0 {
		return nil
	}
	for _, m := range cp.Machines {
		j.stream.append(Event{Type: "machine", Job: j.ID, Machine: machineEvent(m)})
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
