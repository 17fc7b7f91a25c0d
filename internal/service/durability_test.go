package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fleetsched"
	"repro/internal/scenario"
	"repro/internal/wal"
)

// openDurable boots a durable service over dir and tears it down with the
// test (unless the test shuts it down itself first; Shutdown twice errors,
// so the cleanup swallows that).
func openDurable(t *testing.T, dir string, cfg Config) *Service {
	t.Helper()
	cfg.DataDir = dir
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("open durable service: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc
}

// waitTerminal polls a job to a terminal state.
func waitTerminal(t *testing.T, j *Job) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.Terminal() {
			return j.View()
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state: %+v", j.ID, j.View())
	return JobView{}
}

// writeResume appends records to a job's resume log, as the daemon's resume
// helper would have before a crash.
func writeResume(t *testing.T, st *store, jobID string, recs ...*JobCheckpoint) {
	t.Helper()
	log, _, err := wal.Open(st.resumePath(jobID), nil)
	if err != nil {
		t.Fatalf("open resume log: %v", err)
	}
	for _, rec := range recs {
		appendRecord(t, log, rec)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("close resume log: %v", err)
	}
}

// appendRecord appends one durable resume record, as the daemon does.
func appendRecord(t *testing.T, log *wal.Log, rec *JobCheckpoint) {
	t.Helper()
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshal resume record: %v", err)
	}
	if err := log.Append(raw); err != nil {
		t.Fatalf("append resume record: %v", err)
	}
	if err := log.Sync(); err != nil {
		t.Fatalf("sync resume record: %v", err)
	}
}

// artifactBytes flattens an artifact for byte-identity comparison.
func artifactBytes(t *testing.T, a *Artifact) string {
	t.Helper()
	if a == nil {
		t.Fatalf("job has no artifact")
	}
	var b strings.Builder
	b.WriteString(a.Rendered)
	for _, f := range a.Files {
		b.WriteString("\x00" + f.Name + "\x00" + f.Content)
	}
	return b.String()
}

// TestCacheSurvivesRestart is the durability core: complete a job, shut the
// daemon down, reopen the same data directory, and the result cache is warm —
// an identical resubmission is a cache hit serving byte-identical output
// without re-simulating.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("restart-cache", 2, 7)

	svc1 := openDurable(t, dir, Config{Workers: 2, DefaultScale: 1})
	j1, err := svc1.Submit(Request{Spec: spec})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v := waitTerminal(t, j1); v.State != StateDone {
		t.Fatalf("first run finished %s (%s)", v.State, v.Error)
	}
	want := artifactBytes(t, j1.artifactRef())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	svc2 := openDurable(t, dir, Config{Workers: 2, DefaultScale: 1})
	if got := svc2.met.walReplayed.Load(); got < 3 {
		t.Fatalf("replayed %d journal records, want >= 3 (submitted/started/done)", got)
	}
	// The recovered done job itself is tracked and terminal.
	if js := svc2.Jobs(); len(js) != 1 || !js[0].Terminal() {
		t.Fatalf("recovered job table = %d jobs, want 1 terminal", len(js))
	}
	j2, err := svc2.Submit(Request{Spec: spec})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	v2 := j2.View()
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("resubmission after restart: state=%s cacheHit=%v, want done cache hit", v2.State, v2.CacheHit)
	}
	if got := artifactBytes(t, j2.artifactRef()); got != want {
		t.Fatalf("restart-served artifact differs from the original (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRecoveryRerunsInterruptedJob simulates a crash mid-run: the journal
// records a submission and a start but no completion. The restarted daemon
// must re-enqueue the job and produce byte-identical output to an
// uninterrupted run.
func TestRecoveryRerunsInterruptedJob(t *testing.T) {
	spec := tinySpec("crash-rerun", 2, 13)
	req := Request{Spec: spec}

	// Reference run, in-memory.
	ref := New(Config{Workers: 2, DefaultScale: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = ref.Shutdown(ctx)
	}()
	rj, err := ref.Submit(req)
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	if v := waitTerminal(t, rj); v.State != StateDone {
		t.Fatalf("reference run finished %s (%s)", v.State, v.Error)
	}
	want := artifactBytes(t, rj.artifactRef())
	r, err := ref.resolve(req)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}

	// Hand-craft the crashed daemon's journal: submitted + started, no end.
	dir := t.TempDir()
	st, _, err := openStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	now := time.Now()
	for _, rec := range []journalRecord{
		{Op: "submitted", ID: "job-000001", At: now, Key: r.key, Kind: r.kind, JobName: "crash-rerun", Scale: r.scale, Spec: spec},
		{Op: "started", ID: "job-000001", At: now},
	} {
		if err := st.append(rec, true); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := st.close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	svc := openDurable(t, dir, Config{Workers: 2, DefaultScale: 1})
	if got := svc.Recovered(); got != 1 {
		t.Fatalf("Recovered() = %d, want 1", got)
	}
	j, err := svc.Job("job-000001")
	if err != nil {
		t.Fatalf("recovered job not tracked: %v", err)
	}
	if v := waitTerminal(t, j); v.State != StateDone {
		t.Fatalf("recovered job finished %s (%s)", v.State, v.Error)
	}
	if got := artifactBytes(t, j.artifactRef()); got != want {
		t.Fatalf("recovered rerun diverged from uninterrupted reference")
	}
	// The job counter resumed past the recovered ID: no reuse.
	j2, err := svc.Submit(Request{Spec: tinySpec("crash-rerun-b", 1, 14)})
	if err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
	if j2.ID == "job-000001" {
		t.Fatalf("job ID reused after recovery")
	}
}

// TestRecoveryCountsEveryMachineOnce: the fleet violation histogram is a
// fold over announced "machine" events, so a scenario job resumed with K of
// its N machines in its resume log counts all N in the process that
// finishes it — the K re-announced from the log and the N-K it simulates.
func TestRecoveryCountsEveryMachineOnce(t *testing.T) {
	const machines, resumed = 6, 4
	spec := tinySpec("violation-resume", machines, 17)
	req := Request{Spec: spec}
	ref := New(Config{Workers: 1, DefaultScale: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = ref.Shutdown(ctx)
	}()
	r, err := ref.resolve(req)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	res, err := scenario.RunOpts(r.spec, r.scale, scenario.RunOptions{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// The crashed daemon: submitted + started, and K machines durable in the
	// job's resume log.
	dir := t.TempDir()
	st, _, err := openStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	now := time.Now()
	for _, rec := range []journalRecord{
		{Op: "submitted", ID: "job-000001", At: now, Key: r.key, Kind: r.kind, JobName: "violation-resume", Scale: r.scale, Spec: spec},
		{Op: "started", ID: "job-000001", At: now},
	} {
		if err := st.append(rec, true); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	var recs []*JobCheckpoint
	for _, m := range res.Machines[:resumed] {
		recs = append(recs, &JobCheckpoint{Kind: KindScenario, Machines: []scenario.MachineResult{m}})
	}
	writeResume(t, st, "job-000001", recs...)
	if err := st.close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	svc := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
	j, err := svc.Job("job-000001")
	if err != nil {
		t.Fatalf("recovered job not tracked: %v", err)
	}
	if v := waitTerminal(t, j); v.State != StateDone {
		t.Fatalf("recovered job finished %s (%s)", v.State, v.Error)
	}
	if got := svc.met.resumes.Load(); got != 1 {
		t.Fatalf("resumes counter = %d, want 1", got)
	}
	if got := svc.met.checkpoints.Load(); got != machines-resumed {
		t.Fatalf("dimd_checkpoints_written_total = %d, want %d: only the unresumed machines run", got, machines-resumed)
	}
	var b strings.Builder
	svc.met.reg.Render(&b)
	want := fmt.Sprintf("dimd_fleet_violation_seconds_count %d\n", machines)
	if !strings.Contains(b.String(), want) {
		t.Fatalf("metrics lack %q (histogram count %d)", want, svc.met.fleetViolation.Count())
	}
}

// TestRecoveryFailsOnKeyDrift: a journal whose submitted record carries a
// content key the restarted daemon cannot reproduce (catalog or integrator
// changed across the restart) must fail that job loudly, not silently
// compute something else under the old name.
func TestRecoveryFailsOnKeyDrift(t *testing.T) {
	dir := t.TempDir()
	st, _, err := openStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	rec := journalRecord{
		Op: "submitted", ID: "job-000001", At: time.Now(),
		Key: strings.Repeat("ab", 32), Kind: KindScenario,
		JobName: "drift", Scale: 1, Spec: tinySpec("drift", 1, 1),
	}
	if err := st.append(rec, true); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := st.close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	svc := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
	j, err := svc.Job("job-000001")
	if err != nil {
		t.Fatalf("drifted job not tracked: %v", err)
	}
	v := waitTerminal(t, j)
	if v.State != StateFailed || !strings.Contains(v.Error, "drifted") {
		t.Fatalf("drifted job: state=%s err=%q, want failed with key-drift message", v.State, v.Error)
	}
}

// TestRecoveryToleratesTornJournal: garbage appended to the journal tail (a
// torn write at the crash) is truncated at reopen; every intact record still
// replays.
func TestRecoveryToleratesTornJournal(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("torn-tail", 1, 21)

	svc1 := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
	j1, err := svc1.Submit(Request{Spec: spec})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v := waitTerminal(t, j1); v.State != StateDone {
		t.Fatalf("run finished %s (%s)", v.State, v.Error)
	}
	want := artifactBytes(t, j1.artifactRef())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	f, err := os.OpenFile(filepath.Join(dir, "journal.wal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.Write([]byte("\x99torn write garbage")); err != nil {
		t.Fatalf("corrupt journal: %v", err)
	}
	f.Close()

	svc2 := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
	if got := svc2.met.walTruncations.Load(); got != 1 {
		t.Fatalf("walTruncations = %d, want 1", got)
	}
	j2, err := svc2.Submit(Request{Spec: spec})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if v := j2.View(); v.State != StateDone || !v.CacheHit {
		t.Fatalf("after torn-tail recovery: state=%s cacheHit=%v, want done cache hit", v.State, v.CacheHit)
	}
	if got := artifactBytes(t, j2.artifactRef()); got != want {
		t.Fatalf("artifact differs after torn-tail recovery")
	}
}

// TestIdempotentResubmit: a client retry flagged Idempotent attaches to the
// live job with the same content key instead of forking a duplicate run.
func TestIdempotentResubmit(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultScale: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	// First submission occupies the single worker so the second lands while
	// the first is live.
	j1, err := svc.Submit(Request{Spec: slowSpec("idem"), Scale: 0.05})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j2, err := svc.Submit(Request{Spec: slowSpec("idem"), Scale: 0.05, Idempotent: true})
	if err != nil {
		t.Fatalf("idempotent resubmit: %v", err)
	}
	if j2.ID != j1.ID {
		t.Fatalf("idempotent resubmit forked job %s, want %s", j2.ID, j1.ID)
	}
	if got := svc.met.deduped.Load(); got != 1 {
		t.Fatalf("deduped counter = %d, want 1", got)
	}
	// Without the flag, a duplicate is a fresh job (it may still cache-hit
	// later, but identity is new).
	j3, err := svc.Submit(Request{Spec: slowSpec("idem"), Scale: 0.05})
	if err != nil {
		t.Fatalf("plain resubmit: %v", err)
	}
	if j3.ID == j1.ID {
		t.Fatalf("non-idempotent resubmit attached to the live job")
	}
	if err := svc.Cancel(j1.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitTerminal(t, j1)
	// A canceled job does not answer idempotent retries: the retry re-runs.
	j4, err := svc.Submit(Request{Spec: slowSpec("idem"), Scale: 0.05, Idempotent: true})
	if err != nil {
		t.Fatalf("post-cancel idempotent submit: %v", err)
	}
	if j4.ID == j1.ID {
		t.Fatalf("idempotent retry attached to a canceled job")
	}
	_ = svc.Cancel(j3.ID)
	_ = svc.Cancel(j4.ID)
	waitTerminal(t, j3)
	waitTerminal(t, j4)
}

// TestWorkerPanicContained is the panic-containment satellite: an injected
// panic inside job execution fails that job with the panic message, counts in
// dimd_job_panics_total, and leaves the worker pool serving.
func TestWorkerPanicContained(t *testing.T) {
	if err := faultinject.Configure(faultinject.WorkerPanic); err != nil {
		t.Fatalf("configure: %v", err)
	}
	defer faultinject.Reset()

	svc := New(Config{Workers: 1, DefaultScale: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	j1, err := svc.Submit(Request{Spec: tinySpec("panic-victim", 1, 31)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v := waitTerminal(t, j1)
	if v.State != StateFailed || !strings.Contains(v.Error, "worker panic") {
		t.Fatalf("panicked job: state=%s err=%q, want failed with worker panic", v.State, v.Error)
	}
	if got := svc.met.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	// The fault is one-shot; the same worker must still be alive to run this.
	j2, err := svc.Submit(Request{Spec: tinySpec("panic-survivor", 1, 32)})
	if err != nil {
		t.Fatalf("post-panic submit: %v", err)
	}
	if v := waitTerminal(t, j2); v.State != StateDone {
		t.Fatalf("worker did not survive the panic: %s (%s)", v.State, v.Error)
	}
}

// TestSchedCheckpointsWrittenAndCleared: a durable daemon checkpoints
// scheduled runs at the configured cadence and clears the resume token once
// the job is terminal.
func TestSchedCheckpointsWrittenAndCleared(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1, CheckpointEvery: 1})
	j, err := svc.Submit(Request{Spec: schedSpec("cp-cadence")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v := waitTerminal(t, j); v.State != StateDone {
		t.Fatalf("sched run finished %s (%s)", v.State, v.Error)
	}
	if got := svc.met.checkpoints.Load(); got == 0 {
		t.Fatalf("no checkpoints written for a sched run at cadence 1")
	}
	ents, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatalf("read checkpoints dir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("terminal job left %d checkpoint files behind", len(ents))
	}
}

// TestRecoveryResumesSchedFromCheckpoint: a sched job interrupted mid-run
// resumes from its persisted round-barrier checkpoint — verified replay —
// and the result is byte-identical to an uninterrupted run.
func TestRecoveryResumesSchedFromCheckpoint(t *testing.T) {
	spec := schedSpec("cp-resume")
	req := Request{Spec: spec}

	// Uninterrupted reference.
	ref := New(Config{Workers: 1, DefaultScale: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = ref.Shutdown(ctx)
	}()
	rj, err := ref.Submit(req)
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	if v := waitTerminal(t, rj); v.State != StateDone {
		t.Fatalf("reference finished %s (%s)", v.State, v.Error)
	}
	want := artifactBytes(t, rj.artifactRef())
	r, err := ref.resolve(req)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}

	// "Crash" a durable run mid-flight: run the engine once with cadence 1
	// to harvest the round-barrier checkpoints the daemon's hook records,
	// then build a journal that says the job started but never finished,
	// with a mid-run checkpoint on disk.
	dir := t.TempDir()
	var cps []fleetsched.Checkpoint
	if _, err := fleetsched.RunOpts(r.spec, r.policy, r.scale, fleetsched.Options{
		CheckpointEvery: 1,
		OnCheckpoint:    func(cp fleetsched.Checkpoint) { cps = append(cps, cp) },
	}); err != nil {
		t.Fatalf("harvest run: %v", err)
	}
	if len(cps) == 0 {
		t.Fatalf("harvest run wrote no checkpoints at cadence 1")
	}
	midCP := &JobCheckpoint{Kind: KindSched, Sched: &cps[len(cps)/2]}

	st, _, err := openStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	now := time.Now()
	for _, rec := range []journalRecord{
		{Op: "submitted", ID: "job-000001", At: now, Key: r.key, Kind: r.kind, JobName: "cp-resume", Policy: r.policy, Scale: r.scale, Spec: spec},
		{Op: "started", ID: "job-000001", At: now},
	} {
		if err := st.append(rec, true); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	writeResume(t, st, "job-000001", midCP)
	if err := st.close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	svc := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1, CheckpointEvery: 1})
	j, err := svc.Job("job-000001")
	if err != nil {
		t.Fatalf("recovered job not tracked: %v", err)
	}
	if v := waitTerminal(t, j); v.State != StateDone {
		t.Fatalf("resumed job finished %s (%s)", v.State, v.Error)
	}
	if got := svc.met.resumes.Load(); got != 1 {
		t.Fatalf("resumes counter = %d, want 1", got)
	}
	if got := artifactBytes(t, j.artifactRef()); got != want {
		t.Fatalf("resumed sched run diverged from uninterrupted reference")
	}
}

// TestRecoveryRejectsCorruptCheckpoint: a tampered checkpoint fails replay
// verification; the daemon counts the reject, drops the checkpoint, and the
// rerun-from-scratch still produces the reference bytes.
func TestRecoveryRejectsCorruptCheckpoint(t *testing.T) {
	spec := schedSpec("cp-tamper")
	req := Request{Spec: spec}

	ref := New(Config{Workers: 1, DefaultScale: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = ref.Shutdown(ctx)
	}()
	rj, err := ref.Submit(req)
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	if v := waitTerminal(t, rj); v.State != StateDone {
		t.Fatalf("reference finished %s (%s)", v.State, v.Error)
	}
	want := artifactBytes(t, rj.artifactRef())
	r, err := ref.resolve(req)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}

	dir := t.TempDir()
	st, _, err := openStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	now := time.Now()
	for _, rec := range []journalRecord{
		{Op: "submitted", ID: "job-000001", At: now, Key: r.key, Kind: r.kind, JobName: "cp-tamper", Policy: r.policy, Scale: r.scale, Spec: spec},
		{Op: "started", ID: "job-000001", At: now},
	} {
		if err := st.append(rec, true); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// A checkpoint whose digest matches nothing: replay verification at
	// round 1 must reject it.
	tampered := &JobCheckpoint{Kind: KindSched, Sched: &fleetsched.Checkpoint{Round: 1, Digest: "bogus"}}
	writeResume(t, st, "job-000001", tampered)
	if err := st.close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	svc := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1, CheckpointEvery: 1})
	j, err := svc.Job("job-000001")
	if err != nil {
		t.Fatalf("recovered job not tracked: %v", err)
	}
	if v := waitTerminal(t, j); v.State != StateDone {
		t.Fatalf("job with corrupt checkpoint finished %s (%s), want done via scratch rerun", v.State, v.Error)
	}
	if got := svc.met.resumeRejected.Load(); got != 1 {
		t.Fatalf("resumeRejected counter = %d, want 1", got)
	}
	if got := artifactBytes(t, j.artifactRef()); got != want {
		t.Fatalf("scratch rerun after checkpoint reject diverged from reference")
	}
}
