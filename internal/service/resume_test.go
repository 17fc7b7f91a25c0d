package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestResumeLogFoldsIntactPrefix: a resume log holding a duplicated machine
// and a torn final frame folds to the intact prefix — each machine once,
// index-sorted — and reopening it for appending cuts the torn tail.
func TestResumeLogFoldsIntactPrefix(t *testing.T) {
	svc := openDurable(t, t.TempDir(), Config{Workers: 1, DefaultScale: 1})
	machine := func(i int) *JobCheckpoint {
		return &JobCheckpoint{Kind: KindScenario, Machines: []scenario.MachineResult{{Index: i, Seed: uint64(100 + i)}}}
	}
	writeResume(t, svc.store, "job-torn", machine(2), machine(0), machine(2), machine(1))

	// The crash: a frame header promising more payload than ever landed.
	f, err := os.OpenFile(svc.store.resumePath("job-torn"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open log for tearing: %v", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 400)
	if _, err := f.Write(append(hdr[:], `{"kind":"scenario","machines":[{"Ind`...)); err != nil {
		t.Fatalf("tear log: %v", err)
	}
	f.Close()

	j := &Job{ID: "job-torn", kind: KindScenario}
	svc.openResume(j)
	got := j.resumeToken()
	if got == nil || len(got.Machines) != 3 {
		t.Fatalf("folded token %+v, want machines 0,1,2", got)
	}
	for i, m := range got.Machines {
		if m.Index != i || m.Seed != uint64(100+i) {
			t.Fatalf("machine %d folded as %+v", i, m)
		}
	}
	appendRecord(t, j.resume, machine(3))
	j.resume.Close()
	again := &Job{ID: "job-torn", kind: KindScenario}
	svc.openResume(again)
	defer again.resume.Close()
	if got := again.resumeToken(); got == nil || len(got.Machines) != 4 {
		t.Fatalf("reopened log folds to %+v, want 4 machines: the torn tail was not cut", got)
	}
}

// TestResumeLogConcurrentWrites runs a 512-machine fleet whose continuous
// ambient spread puts every machine in its own group, so completions land
// concurrently from every engine goroutine. Every completion must become
// exactly one durable record: no WAL errors, one checkpoint per machine, and
// a log that folds to all 512 distinct indices.
func TestResumeLogConcurrentWrites(t *testing.T) {
	spec, ok := scenario.Get("fleet-diurnal")
	if !ok {
		t.Fatal("fleet-diurnal not registered")
	}
	spec.Name = "resume-concurrent"
	spec.Fleet = scenario.FleetSpec{Machines: 512, BaseSeed: 9100, AmbientSpreadC: 6}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	req := Request{Spec: raw, Scale: 0.05}

	// The daemon path: the job runs on a worker, and its log is dropped
	// once it is done.
	svc := openDurable(t, t.TempDir(), Config{Workers: 2, DefaultScale: 1})
	j, err := svc.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v := waitTerminal(t, j); v.State != StateDone {
		t.Fatalf("fleet finished %s (%s)", v.State, v.Error)
	}
	if got := svc.met.walErrors.Load(); got != 0 {
		t.Fatalf("dimd_wal_errors_total = %d, want 0", got)
	}
	if got := svc.met.checkpoints.Load(); got != 512 {
		t.Fatalf("dimd_checkpoints_written_total = %d, want 512", got)
	}

	// The same hooks with the log kept: drive execute directly, then fold
	// what it wrote.
	r, err := svc.resolve(req)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	fj := &Job{ID: "job-fold", Key: r.key, kind: r.kind, res: r, stream: svc.newJobStream()}
	svc.openResume(fj)
	if _, err := svc.execute(context.Background(), fj); err != nil {
		t.Fatalf("execute: %v", err)
	}
	fj.resume.Close()
	fj.resume = nil
	if got := svc.met.walErrors.Load(); got != 0 {
		t.Fatalf("dimd_wal_errors_total = %d after the kept-log run, want 0", got)
	}
	if got := svc.met.checkpoints.Load(); got != 1024 {
		t.Fatalf("dimd_checkpoints_written_total = %d after the kept-log run, want 1024", got)
	}
	svc.openResume(fj) // fold what the run wrote
	defer fj.resume.Close()
	if n := len(fj.checkpoint.Machines); n != 512 {
		t.Fatalf("log holds %d records, want 512", n)
	}
	if got := fj.resumeToken(); len(got.Machines) != 512 || got.Machines[511].Index != 511 {
		t.Fatalf("log folds to %d distinct machines, want 512", len(got.Machines))
	}
}

// TestStaleResumeFilesSweptAtBoot: boot keeps only the resume logs of the
// jobs it requeues. Logs of terminal jobs and of jobs the journal never
// recorded, and older daemons' <id>.json tokens, are removed; the requeued
// job resumes from its log.
func TestStaleResumeFilesSweptAtBoot(t *testing.T) {
	spec := tinySpec("sweep", 4, 61)
	ref := New(Config{DefaultScale: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = ref.Shutdown(ctx)
	}()
	r, err := ref.resolve(Request{Spec: spec})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}

	dir := t.TempDir()
	st, _, err := openStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	now := time.Now()
	submitted := func(id string) journalRecord {
		return journalRecord{Op: "submitted", ID: id, At: now, Key: r.key, Kind: r.kind, JobName: "sweep", Scale: r.scale, Spec: spec}
	}
	for _, rec := range []journalRecord{
		submitted("job-000001"), {Op: "started", ID: "job-000001", At: now},
		submitted("job-000002"), {Op: "failed", ID: "job-000002", At: now, Error: "boom"},
	} {
		if err := st.append(rec, true); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	done := &JobCheckpoint{Kind: KindScenario, Machines: []scenario.MachineResult{{Index: 1}}}
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		writeResume(t, st, id, done)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoints", "job-000001.json"), []byte(`{"kind":"scenario"}`), 0o644); err != nil {
		t.Fatalf("write old token: %v", err)
	}
	if err := st.close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	svc := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
	for _, name := range []string{"job-000002.wal", "job-000003.wal", "job-000001.json"} {
		if _, err := os.Stat(filepath.Join(dir, "checkpoints", name)); !os.IsNotExist(err) {
			t.Errorf("stale checkpoints/%s survived boot (%v)", name, err)
		}
	}
	j, err := svc.Job("job-000001")
	if err != nil {
		t.Fatalf("recovered job not tracked: %v", err)
	}
	if v := waitTerminal(t, j); v.State != StateDone {
		t.Fatalf("recovered job finished %s (%s)", v.State, v.Error)
	}
	if got := svc.met.resumes.Load(); got != 1 {
		t.Fatalf("resumes counter = %d, want 1: the requeued job lost its log", got)
	}
}
