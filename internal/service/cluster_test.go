package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/scenario"
)

// newWorkerService boots a plain daemon behind httptest — any dimd can serve
// shards; worker mode is just "someone else's coordinator points at you".
func newWorkerService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	return newEngineWorker(t, engine.Config{})
}

// newEngineWorker is newWorkerService under an explicit engine.
func newEngineWorker(t *testing.T, ec engine.Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Config{Workers: 2, DefaultScale: 1, Engine: ec})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
		srv.Close()
	})
	return svc, srv
}

// newCoordinatorService boots a coordinator daemon over the given worker URLs
// with chaos-friendly (fast) lease timing.
func newCoordinatorService(t *testing.T, cfg Config, workers ...string) (*Service, *Client) {
	t.Helper()
	cfg.Cluster = ClusterConfig{
		Workers:        workers,
		LeaseTTL:       300 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		UnhealthyAfter: 2,
		// Coarse shards (2 per worker) so a mid-stream cut always leaves
		// undelivered machines behind — the redispatch tests depend on the
		// faulted shard not being a single machine.
		ShardsPerWorker: 2,
	}
	return newTestService(t, cfg)
}

// singleNodeReference computes the artifact bytes a single-node run of the
// spec produces — the ground truth every clustered run must match exactly.
func singleNodeReference(t *testing.T, raw []byte, scale float64) (string, map[string]string) {
	t.Helper()
	spec, err := scenario.Decode(raw)
	if err != nil {
		t.Fatalf("decoding reference spec: %v", err)
	}
	res, err := scenario.RunOpts(spec, scale, scenario.RunOptions{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	files := map[string]string{}
	for _, f := range scenario.RenderResult(res) {
		files[f.Name] = string(f.Content)
	}
	return res.String(), files
}

// checkByteIdentical fetches the finished job's output and files through the
// API and diffs them against the single-node reference.
func checkByteIdentical(t *testing.T, c *Client, id string, wantOut string, wantFiles map[string]string) {
	t.Helper()
	out, err := c.Output(id)
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	if out != wantOut {
		t.Errorf("clustered output diverged from single-node reference:\n got %d bytes\nwant %d bytes", len(out), len(wantOut))
	}
	names, err := c.Files(id)
	if err != nil {
		t.Fatalf("files: %v", err)
	}
	if len(names) != len(wantFiles) {
		t.Fatalf("file list %v, want %d files", names, len(wantFiles))
	}
	for _, name := range names {
		data, err := c.File(id, name)
		if err != nil {
			t.Fatalf("file %s: %v", name, err)
		}
		if string(data) != wantFiles[name] {
			t.Errorf("file %s diverged from single-node reference (%d vs %d bytes)", name, len(data), len(wantFiles[name]))
		}
	}
}

func TestClusterArtifactByteIdentical(t *testing.T) {
	w1, s1 := newWorkerService(t)
	w2, s2 := newWorkerService(t)
	svc, c := newCoordinatorService(t, Config{Workers: 2, DefaultScale: 1}, s1.URL, s2.URL)

	raw := tinySpec("clu-identical", 11, 7)
	wantOut, wantFiles := singleNodeReference(t, raw, 1)

	v, err := c.Submit(Request{Spec: raw})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("job state %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Degraded {
		t.Error("healthy-worker run reported degraded")
	}
	checkByteIdentical(t, c, v.ID, wantOut, wantFiles)

	if served := w1.met.cluServed.Load() + w2.met.cluServed.Load(); served == 0 {
		t.Error("no worker served a shard; the fleet ran on the coordinator")
	}
	if got := svc.met.cluDispatched.Load(); got == 0 {
		t.Error("coordinator dispatched no shards")
	}

	// Cluster status over the wire: both workers enabled and healthy.
	st, err := c.ClusterStatus()
	if err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	if !st.Enabled || st.Workers != 2 || st.Healthy != 2 || len(st.Detail) != 2 {
		t.Errorf("cluster status %+v, want enabled with 2/2 healthy", st)
	}

	// Workers are not coordinators: their status says disabled.
	wst, err := NewClient(s1.URL).ClusterStatus()
	if err != nil {
		t.Fatalf("worker cluster status: %v", err)
	}
	if wst.Enabled {
		t.Error("plain worker claims coordinator mode")
	}
}

func TestClusterRedispatchOnPartialStream(t *testing.T) {
	_, s1 := newWorkerService(t)
	_, s2 := newWorkerService(t)
	svc, c := newCoordinatorService(t, Config{Workers: 1, DefaultScale: 1}, s1.URL, s2.URL)

	// First shard stream is cut after one machine, without a terminal line.
	// The coordinator must re-dispatch the remainder and still produce the
	// single-node bytes.
	if err := faultinject.Configure(faultinject.ClusterResultPartial); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	raw := tinySpec("clu-partial", 9, 21)
	wantOut, wantFiles := singleNodeReference(t, raw, 1)

	v, err := c.Submit(Request{Spec: raw})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("job state %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Degraded {
		t.Error("partial-stream recovery should stay remote, not degrade")
	}
	if svc.met.cluRetries.Load() == 0 {
		t.Error("no shard retry recorded after a truncated stream")
	}
	checkByteIdenticalInProc(t, svc, v.ID, wantOut, wantFiles)
	checkByteIdentical(t, c, v.ID, wantOut, wantFiles)
}

func TestClusterLeaseExpiryOnStall(t *testing.T) {
	_, s1 := newWorkerService(t)
	_, s2 := newWorkerService(t)
	svc, c := newCoordinatorService(t, Config{Workers: 1, DefaultScale: 1}, s1.URL, s2.URL)

	// One shard request freezes behind a live connection: no bytes, no error.
	// Only the lease TTL can unwedge it.
	if err := faultinject.Configure(faultinject.ClusterShardStall); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	raw := tinySpec("clu-stall", 9, 33)
	wantOut, wantFiles := singleNodeReference(t, raw, 1)

	v, err := c.Submit(Request{Spec: raw})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("job state %s (%s), want done", fin.State, fin.Error)
	}
	if svc.met.cluExpirations.Load() == 0 {
		t.Error("stalled shard did not register a lease expiration")
	}
	if svc.met.cluLeaseAge.Count() == 0 {
		t.Error("lease-age histogram recorded no revocation")
	}
	checkByteIdentical(t, c, v.ID, wantOut, wantFiles)
}

func TestClusterDegradeToLocalWhenAllWorkersDead(t *testing.T) {
	// Ports from TEST-NET that nothing listens on: every dispatch and every
	// heartbeat fails at connect.
	svc, c := newCoordinatorService(t, Config{Workers: 1, DefaultScale: 1},
		"http://127.0.0.1:1", "http://127.0.0.1:2")

	raw := tinySpec("clu-degrade", 7, 45)
	wantOut, wantFiles := singleNodeReference(t, raw, 1)

	v, err := c.Submit(Request{Spec: raw})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("job state %s (%s), want done", fin.State, fin.Error)
	}
	if !fin.Degraded {
		t.Error("all-workers-dead run did not report degraded")
	}
	if svc.met.cluDegraded.Load() == 0 || svc.met.cluLocal.Load() == 0 {
		t.Errorf("degraded=%d local=%d; want both nonzero",
			svc.met.cluDegraded.Load(), svc.met.cluLocal.Load())
	}
	checkByteIdentical(t, c, v.ID, wantOut, wantFiles)

	// The degradation is visible on the stream and in /metrics, not just the
	// status document.
	sawDegradedEvent := false
	if err := c.Stream(context.Background(), v.ID, func(e Event) error {
		if e.Type == "degraded" {
			sawDegradedEvent = true
		}
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if !sawDegradedEvent {
		t.Error("stream carried no degraded event")
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !strings.Contains(text, "dimd_cluster_jobs_degraded_total 1") {
		t.Error("metrics do not show dimd_cluster_jobs_degraded_total 1")
	}

	// Degrade-to-local auto-dumps an incident with the flight recorder.
	sums := svc.inc.summaries()
	if len(sums) != 1 || sums[0].Reason != "degraded" || sums[0].Job != v.ID {
		t.Errorf("incident list %+v, want one degraded dump for %s", sums, v.ID)
	}

	// The heartbeat monitor needs a couple of probe rounds to mark the dead
	// workers unhealthy; the job itself finished faster than that.
	deadline := time.Now().Add(10 * time.Second)
	for svc.clu.Monitor().HealthyCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead workers never marked unhealthy")
		}
		time.Sleep(20 * time.Millisecond)
	}
	text, err = c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !strings.Contains(text, `dimd_cluster_worker_healthy{worker="http://127.0.0.1:1"} 0`) {
		t.Error("metrics do not show the dead worker's labeled health gauge")
	}
	if !strings.Contains(text, "dimd_cluster_workers_healthy 0") {
		t.Error("metrics do not show zero healthy workers")
	}
}

func TestClusterDegradedFlagSurvivesRestart(t *testing.T) {
	dir, err := os.MkdirTemp("", "dimd-clu-restart")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })

	cfg := Config{Workers: 1, DefaultScale: 1, DataDir: dir, Cluster: ClusterConfig{
		Workers:        []string{"http://127.0.0.1:1"},
		LeaseTTL:       200 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
	}}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit(Request{Spec: tinySpec("clu-restart", 4, 50)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !j.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := j.View(); v.State != StateDone || !v.Degraded {
		t.Fatalf("pre-restart view %+v, want done+degraded", v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Restart over the same journal, this time single-node: the degraded flag
	// must come back from the "done" record, not from live cluster state.
	svc2, err := Open(Config{Workers: 1, DefaultScale: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc2.Shutdown(ctx)
	}()
	j2, err := svc2.Job(j.ID)
	if err != nil {
		t.Fatalf("restored job: %v", err)
	}
	if v := j2.View(); v.State != StateDone || !v.Degraded {
		t.Errorf("post-restart view state=%s degraded=%v, want done+degraded", v.State, v.Degraded)
	}
}

// checkByteIdenticalInProc compares the in-memory artifact (not the HTTP
// view) against the reference — catches divergence before serialization.
func checkByteIdenticalInProc(t *testing.T, svc *Service, id string, wantOut string, wantFiles map[string]string) {
	t.Helper()
	j, err := svc.Job(id)
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	art := j.artifactRef()
	if art == nil {
		t.Fatal("no artifact")
	}
	if art.Rendered != wantOut {
		t.Error("in-memory rendered output diverged from single-node reference")
	}
	if len(art.Files) != len(wantFiles) {
		t.Fatalf("artifact has %d files, want %d", len(art.Files), len(wantFiles))
	}
	for _, f := range art.Files {
		if string(f.Content) != wantFiles[f.Name] {
			t.Errorf("artifact file %s diverged", f.Name)
		}
	}
}

func TestShardEndpointValidation(t *testing.T) {
	_, srv := newWorkerService(t)
	c := NewClient(srv.URL)

	// Scale outside the admission bound is refused before any simulation.
	_, err := c.ShardStream(context.Background(), ShardRequest{
		Spec:  tinySpec("clu-bad-scale", 2, 1),
		Scale: MaxScale + 1,
		Shard: cluster.Shard{ID: 0, From: 0, To: 2},
	}, func(scenario.MachineResult) {})
	if se, ok := err.(*StatusError); !ok || se.Code != 400 {
		t.Errorf("oversized scale: err %v, want HTTP 400", err)
	}

	// A scheduled spec cannot shard (cross-machine coupling); the engine error
	// rides the stream as an error line.
	_, err = c.ShardStream(context.Background(), ShardRequest{
		Spec:  schedSpec("clu-sched"),
		Scale: 1,
		Shard: cluster.Shard{ID: 0, From: 0, To: 2},
	}, func(scenario.MachineResult) {})
	if err == nil || !strings.Contains(err.Error(), "cannot shard") {
		t.Errorf("scheduled spec: err %v, want a cannot-shard rejection", err)
	}

	// Integrator pinning: a coordinator configured differently is refused
	// with 409 rather than silently computing different bytes.
	_, err = c.ShardStream(context.Background(), ShardRequest{
		Spec:       tinySpec("clu-integ", 2, 1),
		Scale:      1,
		Shard:      cluster.Shard{ID: 0, From: 0, To: 2},
		Integrator: "exact",
	}, func(scenario.MachineResult) {})
	if se, ok := err.(*StatusError); !ok || se.Code != 409 {
		t.Errorf("integrator mismatch: err %v, want HTTP 409", err)
	}
}

// TestClusterEnginesCoexistInOneProcess pins what a per-daemon engine value
// buys: one process holds a leap coordinator, a leap worker and an exact
// worker. The leap pair completes a sharded job byte-identical to a
// single-node run, and the exact worker refuses the leap coordinator's
// shards with 409.
func TestClusterEnginesCoexistInOneProcess(t *testing.T) {
	leap := engine.Config{Integrator: machine.IntegratorLeap}
	lw, ls := newEngineWorker(t, leap)
	_, es := newEngineWorker(t, engine.Config{Integrator: machine.IntegratorExact})
	_, c := newCoordinatorService(t, Config{Workers: 2, DefaultScale: 1, Engine: leap}, ls.URL)

	raw := tinySpec("clu-leap", 6, 5)
	wantOut, wantFiles := singleNodeReference(t, raw, 1)
	v, err := c.Submit(Request{Spec: raw})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateDone || fin.Degraded {
		t.Fatalf("leap job state %s (degraded %v, %s), want done on the leap worker", fin.State, fin.Degraded, fin.Error)
	}
	if lw.met.cluServed.Load() == 0 {
		t.Error("the leap worker served no shard")
	}
	checkByteIdentical(t, c, v.ID, wantOut, wantFiles)

	_, err = NewClient(es.URL).ShardStream(context.Background(), ShardRequest{
		Spec:       raw,
		Scale:      1,
		Shard:      cluster.Shard{ID: 0, From: 0, To: 2},
		Integrator: machine.IntegratorLeap,
	}, func(scenario.MachineResult) {})
	if se, ok := err.(*StatusError); !ok || se.Code != 409 {
		t.Errorf("leap shard on the exact worker: err %v, want HTTP 409", err)
	}
}

// TestClusterStitchedTrace is the cluster-tracing acceptance check: a sharded
// job's /debug/trace export is one valid Chrome trace holding the
// coordinator's lifecycle spans (pid 1) AND at least one per-worker shard
// span imported under a worker pid (>= 2).
func TestClusterStitchedTrace(t *testing.T) {
	_, s1 := newWorkerService(t)
	_, s2 := newWorkerService(t)
	_, c := newCoordinatorService(t, Config{Workers: 2, DefaultScale: 1}, s1.URL, s2.URL)

	v, err := c.Submit(Request{Spec: tinySpec("clu-trace", 10, 61)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if fin, err := c.Wait(context.Background(), v.ID); err != nil || fin.State != StateDone {
		t.Fatalf("wait: %v (state %s)", err, fin.State)
	}

	raw, err := c.Trace(v.ID)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace export is not valid Chrome trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	lifecycle := map[string]bool{}
	shardSpans := 0
	workerPIDs := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.TS < 0 {
			t.Errorf("event %q has negative timestamp %v", e.Name, e.TS)
		}
		if e.Cat == "lifecycle" && e.PID == 1 {
			lifecycle[e.Name] = true
		}
		if e.Cat == "shard" && e.PID >= 2 && e.Ph == "X" {
			shardSpans++
			workerPIDs[e.PID] = true
		}
	}
	for _, want := range []string{"submit", "queue", "run", "cluster", "finalize"} {
		if !lifecycle[want] {
			t.Errorf("stitched trace is missing coordinator lifecycle span %q", want)
		}
	}
	if shardSpans == 0 {
		t.Fatal("stitched trace has no per-worker shard spans")
	}
	for pid := range workerPIDs {
		if pid != 2 && pid != 3 {
			t.Errorf("shard span under pid %d, want the workers' pids 2/3", pid)
		}
	}
}

// TestMergeHeatFrames unit-tests the coordinator-side fold: worker rows keyed
// "<job>/s<shard>" strip their suffix and merge cell-wise max into the local
// job row; summaries recompute over the merged cells.
func TestMergeHeatFrames(t *testing.T) {
	local := HeatFrame{Jobs: []JobHeatView{
		{Job: "job-0001", Machines: 4, Cells: []float64{50, 0, 0, 40}},
	}}
	w1 := HeatFrame{Jobs: []JobHeatView{
		{Job: "job-0001/s0", Machines: 2, Cells: []float64{80, 60}, VirtualS: 1.5},
	}}
	w2 := HeatFrame{Jobs: []JobHeatView{
		{Job: "job-0001/s1", Machines: 4, Cells: []float64{0, 0, 70, 30}},
		{Job: "job-0009/s0", Machines: 1, Cells: []float64{95}},
	}}

	out := mergeHeatFrames(local, w1, w2)
	if len(out.Jobs) != 2 {
		t.Fatalf("merged frame has %d rows, want 2: %+v", len(out.Jobs), out.Jobs)
	}
	j := out.Jobs[0]
	if j.Job != "job-0001" {
		t.Fatalf("first merged row is %q, want job-0001", j.Job)
	}
	want := []float64{80, 60, 70, 40}
	if len(j.Cells) != 4 {
		t.Fatalf("merged cells %v, want 4 cells", j.Cells)
	}
	for i, c := range j.Cells {
		if c != want[i] {
			t.Errorf("cell %d = %v, want %v (cell-wise max)", i, c, want[i])
		}
	}
	if j.MaxC != 80 || j.HottestMachine != 0 {
		t.Errorf("summary MaxC=%v hottest=%d, want 80 at cell 0", j.MaxC, j.HottestMachine)
	}
	if j.VirtualS != 1.5 {
		t.Errorf("VirtualS %v, want the workers' high-water 1.5", j.VirtualS)
	}
	// A worker row with no local counterpart passes through under its
	// stripped name.
	if out.Jobs[1].Job != "job-0009" || out.Jobs[1].MaxC != 95 {
		t.Errorf("orphan worker row %+v, want job-0009 at 95C", out.Jobs[1])
	}
}

// TestClusterHeatMergedOverWire checks the endpoint half: while a sharded job
// runs, the coordinator's ?once=1 heat frame folds the workers' live shard
// rows into the job's row.
func TestClusterHeatMergedOverWire(t *testing.T) {
	_, s1 := newWorkerService(t)
	_, s2 := newWorkerService(t)
	_, c := newCoordinatorService(t, Config{Workers: 2, DefaultScale: 1}, s1.URL, s2.URL)

	// Long enough to observe mid-run: 8 machines x hundreds of virtual
	// seconds with the exact integrator.
	v, err := c.Submit(Request{Spec: slowSpec("clu-heat")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer func() {
		_, _ = c.Cancel(v.ID)
		_, _ = c.Wait(context.Background(), v.ID)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		f, err := c.Heat()
		if err != nil {
			t.Fatalf("heat: %v", err)
		}
		for _, j := range f.Jobs {
			if strings.Contains(j.Job, "/s") {
				t.Fatalf("merged frame leaked a raw worker row: %q", j.Job)
			}
			if j.Job == v.ID && j.MaxC > 0 && len(j.Cells) > 1 {
				return // workers' telemetry visible through the coordinator
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("coordinator heat frame never showed the workers' shard telemetry")
}
