package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
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

// resumeFleet is a fleet-diurnal request whose continuous ambient spread
// puts every machine in its own group, so completions land concurrently from
// every engine goroutine.
func resumeFleet(t *testing.T, name string, machines int) Request {
	t.Helper()
	spec, ok := scenario.Get("fleet-diurnal")
	if !ok {
		t.Fatal("fleet-diurnal not registered")
	}
	spec.Name = name
	spec.Fleet = scenario.FleetSpec{Machines: machines, BaseSeed: 9200, AmbientSpreadC: 6}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	return Request{Spec: raw, Scale: 0.05}
}

// TestResumeLogAnnouncedIsDurable: a "machine" event becomes readable only
// once that machine is in the job's resume token — the folded, fsynced value
// the snapshot reads. The stream tap sees every event at the moment it is
// appended, before any subscriber can read it; a subscriber reading
// alongside checks the same from the outside.
func TestResumeLogAnnouncedIsDurable(t *testing.T) {
	const machines = 64
	svc := openDurable(t, t.TempDir(), Config{Workers: 1, DefaultScale: 1})
	r, err := svc.resolve(resumeFleet(t, "announce-durable", machines))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	j := &Job{ID: "job-announce", Key: r.key, kind: r.kind, res: r, stream: svc.newJobStream()}
	svc.openResume(j)
	defer func() { j.resume.Close() }()

	durable := func(e Event) bool {
		cp := j.resumeToken()
		if cp == nil {
			return false
		}
		for _, m := range cp.Machines {
			if m.Index == e.Machine.Index {
				return true
			}
		}
		return false
	}
	// Guarded by the stream lock: machine events appended, and those of them
	// appended before they were durable.
	var announced int
	var early []int
	j.stream.onAppend = func(e Event) {
		if e.Type != "machine" {
			return
		}
		if announced++; !durable(e) {
			early = append(early, e.Machine.Index)
		}
	}

	read := make(chan []int) // machine indices the subscriber saw undurable
	go func() {
		var bad []int
		for seq := 0; ; {
			events, next, closed, _ := j.stream.since(seq)
			for _, e := range events {
				if e.Type == "machine" && !durable(e) {
					bad = append(bad, e.Machine.Index)
				}
			}
			if seq = next; closed {
				read <- bad
				return
			}
			<-j.stream.wait(seq)
		}
	}()

	if _, err := svc.execute(context.Background(), j); err != nil {
		t.Fatalf("execute: %v", err)
	}
	j.stream.closeStream()
	bad := <-read
	j.stream.mu.Lock()
	defer j.stream.mu.Unlock()
	if len(early) > 0 || len(bad) > 0 {
		t.Fatalf("machines announced before their record was durable: at append %v, as read %v", early, bad)
	}
	if announced != machines {
		t.Fatalf("%d machine events, want %d", announced, machines)
	}
	if got := svc.met.checkpoints.Load(); got != machines {
		t.Fatalf("dimd_checkpoints_written_total = %d, want %d", got, machines)
	}
}

// TestResumeLogWriterEndsWithJob: a job's resume writer never outlives it.
// Whether the job is canceled mid-run, panics, or is cut off by Shutdown,
// once its stream closes the goroutine count is back to its baseline, every
// announced machine was written exactly once and nothing was written after
// the log was dropped (a late append would be a WAL error), and
// checkpoints/ holds only the logs of jobs requeued at the next boot.
func TestResumeLogWriterEndsWithJob(t *testing.T) {
	// settle waits for the goroutine count to come back to base; a writer
	// outliving its job keeps it above.
	settle := func(t *testing.T, base int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the job ended, baseline %d", runtime.NumGoroutine(), base)
			}
		}
	}
	// drain reads j's stream to its close, calling onMachine at each
	// "machine" event, and returns how many it saw.
	drain := func(j *Job, onMachine func()) int {
		machines := 0
		for seq := 0; ; {
			events, next, closed, _ := j.stream.since(seq)
			for _, e := range events {
				if e.Type == "machine" {
					if machines++; machines == 1 && onMachine != nil {
						onMachine()
					}
				}
			}
			if seq = next; closed {
				return machines
			}
			<-j.stream.wait(seq)
		}
	}
	// onlyRequeued reopens dir and checks every resume log there belongs to
	// a job this boot requeued.
	onlyRequeued := func(t *testing.T, dir string) {
		t.Helper()
		svc := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
		ents, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
		if err != nil {
			t.Fatalf("read checkpoints dir: %v", err)
		}
		for _, e := range ents {
			j, err := svc.Job(strings.TrimSuffix(e.Name(), ".wal"))
			if err != nil || !j.recovered {
				t.Fatalf("checkpoints/%s belongs to no requeued job", e.Name())
			}
		}
	}
	// check runs once j's stream closed, then shuts svc down and reboots
	// its data dir.
	check := func(t *testing.T, svc *Service, dir string, j *Job, announced int, base int) {
		t.Helper()
		settle(t, base)
		if got := svc.met.walErrors.Load(); got != 0 {
			t.Fatalf("dimd_wal_errors_total = %d: a record was written after its log was dropped", got)
		}
		if got := svc.met.checkpoints.Load(); got != int64(announced) {
			t.Fatalf("%d records written, %d machines announced", got, announced)
		}
		if j.resume != nil || j.resumeToken() != nil {
			t.Fatalf("terminal job still holds its resume log or token")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx) // the shutdown leg's second call errors
		onlyRequeued(t, dir)
	}

	t.Run("cancel", func(t *testing.T) {
		dir := t.TempDir()
		svc := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
		base := runtime.NumGoroutine()
		j, err := svc.Submit(resumeFleet(t, "writer-cancel", 256))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		announced := drain(j, func() { _ = svc.Cancel(j.ID) })
		if v := j.View(); v.State != StateCanceled {
			t.Fatalf("job finished %s, want canceled", v.State)
		}
		check(t, svc, dir, j, announced, base)
	})

	t.Run("panic", func(t *testing.T) {
		if err := faultinject.Configure(faultinject.WorkerPanic); err != nil {
			t.Fatalf("arm fault: %v", err)
		}
		defer faultinject.Reset()
		dir := t.TempDir()
		svc := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
		base := runtime.NumGoroutine()
		j, err := svc.Submit(resumeFleet(t, "writer-panic", 16))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		announced := drain(j, nil)
		if v := j.View(); v.State != StateFailed || !strings.Contains(v.Error, "worker panic") {
			t.Fatalf("job finished %s (%s), want a worker panic", v.State, v.Error)
		}
		check(t, svc, dir, j, announced, base)
	})

	t.Run("shutdown", func(t *testing.T) {
		dir := t.TempDir()
		base := runtime.NumGoroutine()
		svc, err := Open(Config{Workers: 1, DefaultScale: 1, DataDir: dir})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		j, err := svc.Submit(resumeFleet(t, "writer-shutdown", 256))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		shut := make(chan error, 1)
		announced := drain(j, func() {
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // no grace: cut the in-flight job off
			go func() { shut <- svc.Shutdown(ctx) }()
		})
		if err := <-shut; err == nil {
			t.Fatalf("shutdown with an expired context drained without cancelling")
		}
		if v := j.View(); v.State != StateCanceled {
			t.Fatalf("job finished %s, want canceled", v.State)
		}
		check(t, svc, dir, j, announced, base)
	})
}

// TestResumeLogTornWriteClaimsNothingLost: after a torn append (the
// wal.partial fault on the log's fifth record) nothing later in the log can
// be recovered, so every machine the token claims — what the snapshot shows
// — must be one a reopened log folds back.
func TestResumeLogTornWriteClaimsNothingLost(t *testing.T) {
	svc := openDurable(t, t.TempDir(), Config{Workers: 1, DefaultScale: 1})
	r, err := svc.resolve(resumeFleet(t, "torn-write", 64))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	j := &Job{ID: "job-torn-write", Key: r.key, kind: r.kind, res: r, stream: svc.newJobStream()}
	svc.openResume(j)
	if err := faultinject.Configure(faultinject.WALPartial + ":5"); err != nil {
		t.Fatalf("arm fault: %v", err)
	}
	defer faultinject.Reset()
	if _, err := svc.execute(context.Background(), j); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if svc.met.walErrors.Load() == 0 {
		t.Fatalf("the torn append was not counted as a WAL error")
	}
	var claimed []scenario.MachineResult // nil if the tear hit the first batch
	if cp := j.resumeToken(); cp != nil {
		claimed = cp.Machines
	}
	j.resume.Close()
	reopened := &Job{ID: j.ID, kind: r.kind}
	svc.openResume(reopened)
	defer reopened.resume.Close()
	recovered := map[int]bool{}
	if cp := reopened.resumeToken(); cp != nil {
		for _, m := range cp.Machines {
			recovered[m.Index] = true
		}
	}
	for _, m := range claimed {
		if !recovered[m.Index] {
			t.Fatalf("token claims machine %d, which the log does not recover (%d claimed, %d recovered)",
				m.Index, len(claimed), len(recovered))
		}
	}
}
