package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// runToDone submits the spec and waits for completion through the client.
func runToDone(t *testing.T, c *Client, spec json.RawMessage) JobView {
	t.Helper()
	v, err := c.Submit(Request{Spec: spec})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	return fin
}

// TestSnapshotHashDeterministic is the snapshot contract: the content hash
// names the logical fleet state, so the same job sequence on two fresh
// daemons hashes identically, repeated captures of a quiesced daemon hash
// identically, and any state difference changes the hash.
func TestSnapshotHashDeterministic(t *testing.T) {
	spec := tinySpec("snap-hash", 3, 41)

	_, c1 := newTestService(t, Config{Workers: 2, DefaultScale: 1})
	runToDone(t, c1, spec)
	s1a, err := c1.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	s1b, err := c1.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if s1a.Hash == "" || s1a.Hash != s1b.Hash {
		t.Errorf("repeated capture of a quiesced daemon: hashes %q vs %q, want equal and nonempty", s1a.Hash, s1b.Hash)
	}
	if s1a.Version != SnapshotVersion {
		t.Errorf("snapshot version %d, want %d", s1a.Version, SnapshotVersion)
	}

	_, c2 := newTestService(t, Config{Workers: 2, DefaultScale: 1})
	runToDone(t, c2, spec)
	s2, err := c2.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if s2.Hash != s1a.Hash {
		t.Errorf("same job sequence on a fresh daemon hashed %q, want %q", s2.Hash, s1a.Hash)
	}

	// Different state must change the hash.
	runToDone(t, c2, tinySpec("snap-hash-extra", 2, 42))
	s3, err := c2.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if s3.Hash == s2.Hash {
		t.Error("snapshot hash did not change after a second job completed")
	}
}

// TestSnapshotCapturesJobDetail checks the per-job payload an incident
// export depends on: canonical spec, retained machine thermal states (bounded
// at maxSnapshotStates), and identity/state fields.
func TestSnapshotCapturesJobDetail(t *testing.T) {
	svc, c := newTestService(t, Config{Workers: 2, DefaultScale: 1})
	fin := runToDone(t, c, tinySpec("snap-detail", 3, 43))

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(snap.Jobs) != 1 {
		t.Fatalf("snapshot has %d jobs, want 1", len(snap.Jobs))
	}
	js := snap.Jobs[0]
	if js.ID != fin.ID || js.Key != fin.Key || js.State != StateDone {
		t.Errorf("job snapshot identity %+v diverges from view %+v", js, fin)
	}
	if len(js.Spec) == 0 || !strings.Contains(string(js.Spec), "snap-detail") {
		t.Errorf("job snapshot is missing its canonical spec: %s", js.Spec)
	}
	if len(js.MachineStates) != 3 {
		t.Fatalf("retained %d machine states, want 3", len(js.MachineStates))
	}
	for i, ms := range js.MachineStates {
		if ms.Index != i {
			t.Errorf("machine state %d has index %d, want sorted by index", i, ms.Index)
		}
		if ms.State.Now.Seconds() <= 0 {
			t.Errorf("machine %d state has non-positive sim time: %+v", ms.Index, ms.State)
		}
	}
	if snap.Journal != nil {
		t.Error("in-memory daemon snapshot carries journal stats")
	}
	if svc.met.snapshots.Load() != 1 {
		t.Errorf("snapshot counter = %d, want 1", svc.met.snapshots.Load())
	}

	// Large fleets retain only the first maxSnapshotStates indices.
	fin2 := runToDone(t, c, tinySpec("snap-bound", maxSnapshotStates+8, 44))
	snap2, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, js := range snap2.Jobs {
		if js.ID != fin2.ID {
			continue
		}
		if len(js.MachineStates) != maxSnapshotStates {
			t.Errorf("retained %d machine states, want the %d-index bound", len(js.MachineStates), maxSnapshotStates)
		}
	}
}

// TestSnapshotJournalStats checks the durable-daemon half: the snapshot
// reports WAL write totals, and they are excluded from the content hash.
func TestSnapshotJournalStats(t *testing.T) {
	svc := openDurable(t, t.TempDir(), Config{Workers: 1, DefaultScale: 1})
	j, err := svc.Submit(Request{Spec: tinySpec("snap-journal", 2, 45)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, j)

	snap := svc.BuildSnapshot()
	if snap.Journal == nil {
		t.Fatal("durable daemon snapshot has no journal stats")
	}
	if snap.Journal.Appends < 3 || snap.Journal.Bytes == 0 || snap.Journal.Fsyncs == 0 {
		t.Errorf("journal stats %+v, want >=3 appends with bytes and fsyncs", snap.Journal)
	}
	// The hash must not move when only journal totals differ.
	h1 := snap.hashCore()
	snap.Journal.Appends += 100
	if h2 := snap.hashCore(); h2 != h1 {
		t.Error("journal totals leaked into the snapshot content hash")
	}
}

// TestIncidentOnForcedSLOBreach drives the faultinject path CI uses: the
// slo.breach point forces the next evaluation to dump an incident with the
// flight-recorder ring and a full snapshot attached.
func TestIncidentOnForcedSLOBreach(t *testing.T) {
	if err := faultinject.Configure(faultinject.SLOBreach); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	svc, c := newTestService(t, Config{Workers: 1, DefaultScale: 1})
	fin := runToDone(t, c, tinySpec("slo-forced", 2, 46))

	sums, err := c.Incidents()
	if err != nil {
		t.Fatalf("incidents: %v", err)
	}
	if len(sums) != 1 {
		t.Fatalf("incident list has %d entries, want 1", len(sums))
	}
	sum := sums[0]
	if sum.Reason != "slo:forced" || sum.Job != fin.ID {
		t.Errorf("incident summary %+v, want reason slo:forced on %s", sum, fin.ID)
	}
	if sum.Records == 0 {
		t.Error("incident dumped with an empty flight-recorder ring")
	}
	if sum.SnapshotHash == "" {
		t.Error("incident summary has no snapshot hash")
	}

	inc, err := c.Incident(sum.ID)
	if err != nil {
		t.Fatalf("incident fetch: %v", err)
	}
	if inc.Snapshot == nil || inc.Snapshot.Hash != sum.SnapshotHash {
		t.Error("full incident dump is missing its snapshot")
	}
	// The ring feeds: stream events and spans recorded during the run.
	kinds := map[string]int{}
	for _, r := range inc.Records {
		kinds[r.Kind]++
	}
	if kinds["stream"] == 0 || kinds["span"] == 0 {
		t.Errorf("flight records by kind %v, want stream and span feeds", kinds)
	}
	if svc.met.sloBreaches.Load() != 1 || svc.met.incidents.Load() != 1 {
		t.Errorf("breaches=%d incidents=%d, want 1/1", svc.met.sloBreaches.Load(), svc.met.incidents.Load())
	}

	if _, err := c.Incident("inc-999999"); err == nil {
		t.Error("unknown incident ID did not 404")
	}
}

// TestIncidentOnBurnRateBreach arms a real (absurdly tight) queue-wait SLO
// and checks the burn-rate evaluator itself fires the dump.
func TestIncidentOnBurnRateBreach(t *testing.T) {
	svc, c := newTestService(t, Config{
		Workers: 1, DefaultScale: 1,
		SLO: SLOConfig{QueueWaitS: 1e-12, Budget: 0.5, MinEvents: 1},
	})
	runToDone(t, c, tinySpec("slo-burn", 1, 47))

	sums, err := c.Incidents()
	if err != nil {
		t.Fatalf("incidents: %v", err)
	}
	if len(sums) != 1 || sums[0].Reason != "slo:queue-wait" {
		t.Fatalf("incident list %+v, want one slo:queue-wait dump", sums)
	}
	if !strings.Contains(sums[0].Detail, "burn rate") {
		t.Errorf("incident detail %q does not name the burn rate", sums[0].Detail)
	}
	if svc.met.sloBreaches.Load() != 1 {
		t.Errorf("slo breach counter = %d, want 1", svc.met.sloBreaches.Load())
	}
}

// TestIncidentOnPanic checks the worker-panic auto-dump: the job fails
// contained, and the incident captures the run-up.
func TestIncidentOnPanic(t *testing.T) {
	if err := faultinject.Configure(faultinject.WorkerPanic); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	svc, c := newTestService(t, Config{Workers: 1, DefaultScale: 1})
	v, err := c.Submit(Request{Spec: tinySpec("panic-dump", 1, 48)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateFailed {
		t.Fatalf("panicked job state %s, want failed", fin.State)
	}

	sums, err := c.Incidents()
	if err != nil {
		t.Fatalf("incidents: %v", err)
	}
	if len(sums) != 1 || sums[0].Reason != "panic" || sums[0].Job != v.ID {
		t.Fatalf("incident list %+v, want one panic dump for %s", sums, v.ID)
	}
	if svc.met.incidents.Load() != 1 {
		t.Errorf("incident counter = %d, want 1", svc.met.incidents.Load())
	}
}

// TestIncidentsSurviveRestart checks the durable mirror: an incident dumped
// before a restart is still listed (with its snapshot) after reopening the
// data directory, and new incidents continue the ID sequence.
func TestIncidentsSurviveRestart(t *testing.T) {
	if err := faultinject.Configure(faultinject.SLOBreach); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	svc1 := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
	j1, err := svc1.Submit(Request{Spec: tinySpec("inc-durable", 1, 49)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, j1)
	faultinject.Reset()
	before := svc1.inc.summaries()
	if len(before) != 1 {
		t.Fatalf("incident list before restart has %d entries, want 1", len(before))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	svc2 := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
	after := svc2.inc.summaries()
	if len(after) != 1 || after[0].ID != before[0].ID || after[0].Reason != before[0].Reason {
		t.Fatalf("incident list after restart %+v, want %+v", after, before)
	}
	inc, ok := svc2.inc.get(before[0].ID)
	if !ok || inc.Snapshot == nil || inc.Snapshot.Hash != before[0].SnapshotHash {
		t.Error("restored incident lost its snapshot")
	}

	// The ID sequence continues where it left off.
	svc2.dumpIncident("degraded", "job-test", "sequence probe", nil)
	sums := svc2.inc.summaries()
	if len(sums) != 2 || sums[1].ID <= sums[0].ID {
		t.Errorf("post-restart incident IDs %v, want a continued ascending sequence", sums)
	}
}

// startServer fronts a service with an httptest server the test closes
// itself (restart tests need explicit teardown ordering).
func startServer(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	return httptest.NewServer(svc.Handler())
}

// sseEvents reads one full SSE response body and returns the (id, event) of
// every framed event.
type sseEvent struct {
	id   int
	name string
}

func readSSE(t *testing.T, c *Client, path string, lastEventID string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, c.Base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		t.Fatalf("sse get: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	var events []sseEvent
	cur := sseEvent{id: -1}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			cur = sseEvent{id: -1}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("sse read: %v", err)
	}
	return events
}

// TestStreamSSEReconnectAcrossRestart checks the EventSource contract across
// a daemon restart: a client that reconnects with Last-Event-ID resumes at
// that ID + 1 against the recovered job's stream — no duplicates, terminal
// event still delivered.
func TestStreamSSEReconnectAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc1 := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
	srv1 := startServer(t, svc1)
	c1 := NewClient(srv1.URL)

	v, err := c1.Submit(Request{Spec: tinySpec("sse-restart", 2, 50)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c1.Wait(context.Background(), v.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	full := readSSE(t, c1, "/v1/jobs/"+v.ID+"/stream", "")
	if len(full) < 2 || full[len(full)-1].name != "done" {
		t.Fatalf("pre-restart SSE stream %+v, want >= 2 events ending in done", full)
	}
	for i, e := range full {
		if e.id != i {
			t.Fatalf("SSE ids not sequential: event %d has id %d", i, e.id)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	srv1.Close()

	// The recovered done job replays a compact stream (state + done). A
	// reconnect with Last-Event-ID: 0 must resume at id 1 — the terminal
	// event, never a duplicate of id 0.
	svc2 := openDurable(t, dir, Config{Workers: 1, DefaultScale: 1})
	srv2 := startServer(t, svc2)
	defer srv2.Close()
	c2 := NewClient(srv2.URL)
	resumed := readSSE(t, c2, "/v1/jobs/"+v.ID+"/stream", "0")
	if len(resumed) != 1 || resumed[0].id != 1 || resumed[0].name != "done" {
		t.Fatalf("post-restart resume from id 0 delivered %+v, want exactly the done event at id 1", resumed)
	}
}
