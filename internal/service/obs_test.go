package service

import (
	"context"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fleetsched"
	"repro/internal/scenario"
)

// TestMetricsGoldenNames pins the /metrics exposition surface: every metric
// name and its declared type, in render order. Dashboards and the CI smoke
// grep depend on these being byte-stable; a rename or reorder must update the
// golden deliberately (UPDATE_GOLDEN=1 go test ./internal/service/).
func TestMetricsGoldenNames(t *testing.T) {
	svc, _ := newTestService(t, Config{Workers: 1, DefaultScale: 1})
	got := strings.Join(svc.met.reg.Names(), "\n") + "\n"

	golden := filepath.Join("testdata", "metrics_names.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric name/type surface drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestMetricsExpositionFormat asserts the exact sample-line format the CI
// smoke job greps for, and that the legacy names survived the registry
// migration with their values intact.
func TestMetricsExpositionFormat(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2, DefaultScale: 1})
	for i := 0; i < 2; i++ { // second submit is a cache hit
		v, err := c.Submit(Request{Spec: tinySpec("obs-expo", 1, 3)})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if _, err := c.Wait(context.Background(), v.ID); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"dimd_jobs_submitted_total 2\n",
		"dimd_cache_hits_total 1\n",
		"dimd_cache_misses_total 1\n",
		"# TYPE dimd_cache_hits_total counter\n",
		"# TYPE dimd_queue_depth gauge\n",
		"# TYPE dimd_job_queue_wait_seconds histogram\n",
		`dimd_job_run_seconds_bucket{le="+Inf"} 1`,
		"dimd_job_run_seconds_count 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestTraceEndpoint runs one durable job and checks its Chrome trace: valid
// trace-event JSON carrying the full lifecycle span taxonomy.
func TestTraceEndpoint(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1, DefaultScale: 1, DataDir: t.TempDir()})
	v, err := c.Submit(Request{Spec: tinySpec("obs-trace", 2, 7)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Wait(context.Background(), v.ID); err != nil {
		t.Fatalf("wait: %v", err)
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
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Cat == "lifecycle" {
			seen[e.Name] = true
		}
	}
	for _, want := range []string{"submit", "queue", "run", "checkpoint", "artifact", "finalize", "done"} {
		if !seen[want] {
			t.Errorf("trace missing lifecycle span %q; saw %v", want, seen)
		}
	}

	if _, err := c.Trace("job-999999"); err == nil {
		t.Errorf("trace of unknown job did not error")
	}
}

// TestHeatEndpoint drives a slow streaming job and polls the once-frame until
// the job's heat row appears, then checks the terminal job is dropped.
func TestHeatEndpoint(t *testing.T) {
	svc, c := newTestService(t, Config{Workers: 1, DefaultScale: 1, TelemetryEvery: 1})
	v, err := c.Submit(Request{Spec: slowSpec("obs-heat")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var frame HeatFrame
	for {
		frame, err = c.Heat()
		if err != nil {
			t.Fatalf("heat: %v", err)
		}
		if len(frame.Jobs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no heat frame for running job %s", v.ID)
		}
		time.Sleep(20 * time.Millisecond)
	}
	j := frame.Jobs[0]
	if j.Job != v.ID || j.Machines <= 0 || len(j.Cells) == 0 || j.MaxC <= 0 {
		t.Fatalf("implausible heat row: %+v", j)
	}
	if len(j.Cells) > heatMaxCells {
		t.Fatalf("heat cells unbounded: %d", len(j.Cells))
	}
	if _, err := c.Cancel(v.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if _, err := c.Wait(context.Background(), v.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	svc.heat.mu.Lock()
	_, still := svc.heat.jobs[v.ID]
	svc.heat.mu.Unlock()
	if still {
		t.Errorf("terminal job %s still holds heat cells", v.ID)
	}
}

// TestHeatStateFolding unit-tests the heat fold over job events: indices
// past the bound alias modulo the cell count, the hottest machine wins its
// cell, a "machine" completion folds like a sample, and a terminal event
// drops its job's row.
func TestHeatStateFolding(t *testing.T) {
	var h heatState
	sample := func(index int, peakC, nowS float64) Event {
		return Event{Type: "telemetry", Job: "job-1", Machine: &MachineEvent{Index: index, PeakJunctionC: peakC, NowS: nowS}}
	}
	h.fold("job-1", sample(0, 50, 1))
	h.fold("job-1", sample(700, 80, 2))
	h.fold("job-1", sample(700%heatMaxCells, 60, 3))
	h.fold("job-1", Event{Type: "machine", Job: "job-1", Machine: machineEvent(scenario.MachineResult{Index: 5, PeakJunction: 70})})
	h.fold("job-1", Event{Type: "state", Job: "job-1", State: StateRunning}) // folds nothing
	h.fold("job-0", Event{Type: "round", Job: "job-0", Round: &fleetsched.RoundTelemetry{Round: 4, HottestMachine: 3, MaxJunctionC: 91, NowS: 8}})

	f := h.snapshot()
	if len(f.Jobs) != 2 || f.Jobs[0].Job != "job-0" || f.Jobs[1].Job != "job-1" {
		t.Fatalf("snapshot jobs = %+v, want job-0 then job-1", f.Jobs)
	}
	j := f.Jobs[1]
	if j.Machines != 701 || len(j.Cells) != heatMaxCells {
		t.Fatalf("machines=%d cells=%d, want 701 machines folded into %d cells", j.Machines, len(j.Cells), heatMaxCells)
	}
	if j.MaxC != 80 || j.HottestMachine != 700 {
		t.Errorf("hottest = %.0fC at m%d, want 80C at m700 (aliased cell must keep its max)", j.MaxC, j.HottestMachine)
	}
	if j.Cells[5] != 70 {
		t.Errorf("cell 5 = %v, want the machine completion's 70C peak", j.Cells[5])
	}
	if j.VirtualS != 3 {
		t.Errorf("virtualS = %v, want high-water 3", j.VirtualS)
	}
	s := f.Jobs[0]
	if s.Round != 4 || s.MaxC != 91 || s.HottestMachine != 3 {
		t.Errorf("sched row = %+v, want round 4, 91C at m3", s)
	}

	h.fold("job-1", Event{Type: "error", Job: "job-1", State: StateCanceled})
	if f := h.snapshot(); len(f.Jobs) != 1 || f.Jobs[0].Job != "job-0" {
		t.Errorf("terminal event left rows %+v, want only job-0", f.Jobs)
	}
	h.fold("job-9", Event{Type: "done", Job: "job-9", State: StateDone}) // a hit: no row to drop
	if f := h.snapshot(); len(f.Jobs) != 1 {
		t.Errorf("terminal event of an unmapped job changed the map: %+v", f.Jobs)
	}
}

// TestHeatMapIsStreamFold: a running scenario job's live heat row equals the
// fold of the job's own events, read back from its stream, into a fresh
// heatState; the live map is read inside the job's fold just before the
// terminal event, which then drops the row.
func TestHeatMapIsStreamFold(t *testing.T) {
	svc, _ := newTestService(t, Config{Workers: 1, DefaultScale: 1, TelemetryEvery: 5, MaxEvents: 1 << 14})
	r, err := svc.resolve(resumeFleet(t, "heat-fold", 24))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	var live HeatFrame // guarded by the stream lock
	j := &Job{ID: "job-heat-fold", Key: r.key, kind: r.kind, res: r}
	j.stream = newStream(svc.cfg.MaxEvents, func(e Event) {
		if e.terminal() {
			live = svc.heat.snapshot()
		}
		svc.fold(e)
	})
	if _, err := svc.execute(context.Background(), j); err != nil {
		t.Fatalf("execute: %v", err)
	}
	svc.emit(j, Event{Type: "done", Job: j.ID, State: StateDone})

	events, _, closed, evicted := j.stream.since(0)
	if !closed || evicted != 0 {
		t.Fatalf("stream closed=%v evicted=%d, want closed with every event retained", closed, evicted)
	}
	var fresh heatState
	var machines int
	for _, e := range events[:len(events)-1] {
		if e.Type == "machine" {
			machines++
		}
		fresh.fold(e.Job, e)
	}
	if machines != 24 {
		t.Fatalf("%d machine events, want 24", machines)
	}
	want, got := fresh.snapshot(), live
	if len(want.Jobs) != 1 || len(got.Jobs) != 1 {
		t.Fatalf("folded %d rows, live %d rows, want 1 each", len(want.Jobs), len(got.Jobs))
	}
	w, g := want.Jobs[0], got.Jobs[0]
	if g.Job != j.ID || g.Machines != w.Machines || g.VirtualS != w.VirtualS || g.Round != w.Round ||
		g.MaxC != w.MaxC || g.HottestMachine != w.HottestMachine || !slices.Equal(g.Cells, w.Cells) {
		t.Fatalf("live row %+v, folded from the stream %+v", g, w)
	}
	for _, e := range events {
		if e.Type == "machine" && g.Cells[e.Machine.Index%len(g.Cells)] < e.Machine.PeakJunctionC {
			t.Fatalf("machine %d's completion peak %v is above its live cell", e.Machine.Index, e.Machine.PeakJunctionC)
		}
	}
	if f := svc.heat.snapshot(); len(f.Jobs) != 0 {
		t.Fatalf("the terminal event left live rows %+v", f.Jobs)
	}
	fresh.fold(j.ID, events[len(events)-1])
	if f := fresh.snapshot(); len(f.Jobs) != 0 {
		t.Fatalf("folding the terminal event left rows %+v", f.Jobs)
	}
}

// TestJobLayerSecondsMatchTrace pins dimd_job_layer_seconds_total to the
// jobs' own traces: after a scenario job and a sched job, each layer's
// counter delta is the summed duration of that layer's spans in the two
// traces, the layer sets agree both ways, and a cache hit of the first job
// adds nothing. The coordinator leg shows that the spans a worker ships back
// stay in the stitched trace and out of the counter.
func TestJobLayerSecondsMatchTrace(t *testing.T) {
	run := func(t *testing.T, c *Client, spec json.RawMessage) JobView {
		t.Helper()
		v, err := c.Submit(Request{Spec: spec})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		fin, err := c.Wait(context.Background(), v.ID)
		if err != nil || fin.State != StateDone {
			t.Fatalf("wait %s: %v (state %s)", v.ID, err, fin.State)
		}
		return fin
	}

	t.Run("single-node", func(t *testing.T) {
		_, c := newTestService(t, Config{Workers: 1, DefaultScale: 1})
		before := layerSeconds(t, c)
		first := run(t, c, tinySpec("layers", 3, 71))
		second := run(t, c, schedSpec("layers-sched"))
		after := layerSeconds(t, c)
		want, _ := traceLayers(t, c, first.ID, second.ID)
		for _, layer := range []string{"lifecycle.run", "scenario.step", "sched.build"} {
			if _, ok := want[layer]; !ok {
				t.Errorf("traces have no %s span; saw %v", layer, want)
			}
		}
		checkLayerDelta(t, before, after, want)

		if hit := run(t, c, tinySpec("layers", 3, 71)); !hit.CacheHit {
			t.Fatalf("resubmit of %s was not a cache hit", first.ID)
		}
		if got := layerSeconds(t, c); !maps.Equal(got, after) {
			t.Errorf("cache hit moved the layer counter:\n got %v\nwant %v", got, after)
		}
	})

	t.Run("coordinator", func(t *testing.T) {
		_, w := newWorkerService(t)
		_, c := newCoordinatorService(t, Config{Workers: 1, DefaultScale: 1}, w.URL)
		before := layerSeconds(t, c)
		v := run(t, c, tinySpec("layers-clu", 6, 73))
		if v.Degraded {
			t.Fatal("job degraded to local shards: no worker spans to exclude")
		}
		after := layerSeconds(t, c)
		want, imported := traceLayers(t, c, v.ID)
		if imported["scenario.step"] == 0 {
			t.Fatalf("stitched trace carries no worker scenario.step span; imported %v", imported)
		}
		checkLayerDelta(t, before, after, want)
	})
}

// layerSeconds scrapes the per-layer job time series from /metrics.
func layerSeconds(t *testing.T, c *Client) map[string]float64 {
	t.Helper()
	text, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	const prefix = `dimd_job_layer_seconds_total{layer="`
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		layer, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			t.Fatalf("malformed layer sample %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("layer sample %q: %v", line, err)
		}
		out[layer] = v
	}
	return out
}

// traceLayers sums the jobs' Chrome traces by "<cat>.<name>" over complete
// lifecycle, scenario and sched spans, leaving out the sampled round-NNNN
// spans. own holds the spans on the job's own track (pid 1); imported those
// stitched in from cluster workers (pid >= 2).
func traceLayers(t *testing.T, c *Client, ids ...string) (own, imported map[string]float64) {
	t.Helper()
	own, imported = map[string]float64{}, map[string]float64{}
	for _, id := range ids {
		raw, err := c.Trace(id)
		if err != nil {
			t.Fatalf("trace %s: %v", id, err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Cat  string  `json:"cat"`
				Ph   string  `json:"ph"`
				PID  int     `json:"pid"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace %s: %v", id, err)
		}
		for _, e := range doc.TraceEvents {
			if e.Ph != "X" || strings.HasPrefix(e.Name, "round-") ||
				(e.Cat != "lifecycle" && e.Cat != "scenario" && e.Cat != "sched") {
				continue
			}
			sum := own
			if e.PID != 1 {
				sum = imported
			}
			sum[e.Cat+"."+e.Name] += e.Dur / 1e6
		}
	}
	return own, imported
}

// checkLayerDelta asserts that the counter moved by exactly want: the same
// layer set both ways, and each delta equal to the traced seconds up to the
// trace export's float rounding.
func checkLayerDelta(t *testing.T, before, after, want map[string]float64) {
	t.Helper()
	for layer, v := range after {
		d := v - before[layer]
		if d == 0 {
			continue
		}
		w, ok := want[layer]
		if !ok {
			t.Errorf("counter layer %s moved by %gs with no span in the traces", layer, d)
			continue
		}
		if math.Abs(d-w) > 1e-9 {
			t.Errorf("layer %s: counter moved %.9fs, traces sum %.9fs", layer, d, w)
		}
	}
	for layer := range want {
		if after[layer]-before[layer] == 0 {
			t.Errorf("traced layer %s is missing from the counter", layer)
		}
	}
}
