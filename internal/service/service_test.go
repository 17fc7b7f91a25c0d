package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// tinySpec renders a minimal fast scenario: `machines` one-core burn
// machines for the floor duration (2 virtual seconds after scaling). seed
// differentiates content addresses — distinct seeds never share cache
// entries.
func tinySpec(name string, machines int, seed uint64) json.RawMessage {
	return fmt.Appendf(nil, `{
		"name": %q,
		"duration_s": 2,
		"fleet": {"machines": %d, "base_seed": %d},
		"machine": {"cores": 1},
		"workload": [{"kind": "burn", "threads": 1}]
	}`, name, machines, seed)
}

// slowSpec renders a scenario long enough to catch mid-run: exact
// integrator, multiple machines, hundreds of virtual seconds.
func slowSpec(name string) json.RawMessage {
	return []byte(fmt.Sprintf(`{
		"name": %q,
		"duration_s": 600,
		"fleet": {"machines": 8, "base_seed": 11},
		"machine": {"integrator": "exact"},
		"workload": [{"kind": "burn"}]
	}`, name))
}

// schedSpec renders a small scheduled scenario (several dispatch rounds).
func schedSpec(name string) json.RawMessage {
	return []byte(fmt.Sprintf(`{
		"name": %q,
		"duration_s": 20,
		"fleet": {"machines": 2, "base_seed": 5},
		"machine": {"cores": 1},
		"scheduler": {
			"round_s": 2,
			"jobs": [{"name": "small", "rate": 0.4, "work_s": 2}]
		}
	}`, name))
}

// newTestService boots a service with an httptest server in front and
// returns its client. Both are torn down with the test.
func newTestService(t *testing.T, cfg Config) (*Service, *Client) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
		srv.Close()
	})
	return svc, NewClient(srv.URL)
}

func TestSubmitStatusOutputExport(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2, DefaultScale: 1})

	v, err := c.Submit(Request{Spec: tinySpec("api-probe", 2, 1)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v.Kind != KindScenario || v.State == "" || v.Key == "" {
		t.Fatalf("unexpected submit view: %+v", v)
	}
	final, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if final.SimSeconds <= 0 {
		t.Fatalf("done job reports no sim-seconds: %+v", final)
	}

	out, err := c.Output(v.ID)
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	if !strings.Contains(out, "Scenario api-probe") {
		t.Fatalf("rendered output missing banner:\n%s", out)
	}

	files, err := c.Files(v.ID)
	if err != nil {
		t.Fatalf("files: %v", err)
	}
	want := []string{"scenario_api_probe_machines.csv", "scenario_api_probe_fleet.csv"}
	if len(files) != len(want) || files[0] != want[0] || files[1] != want[1] {
		t.Fatalf("files = %v, want %v", files, want)
	}
	data, err := c.File(v.ID, files[0])
	if err != nil {
		t.Fatalf("file: %v", err)
	}
	if !strings.HasPrefix(string(data), "machine,seed,") {
		t.Fatalf("machines CSV header missing:\n%s", data)
	}

	if _, err := c.Job("job-999999"); err == nil {
		t.Fatalf("unknown job did not 404")
	} else if se, ok := err.(*StatusError); !ok || se.Code != http.StatusNotFound {
		t.Fatalf("unknown job error = %v, want 404 StatusError", err)
	}
	if _, err := c.Submit(Request{Spec: []byte(`{"name":"bad"`)}); err == nil {
		t.Fatalf("malformed spec did not 400")
	}
	if _, err := c.Submit(Request{}); err == nil {
		t.Fatalf("empty request did not 400")
	}
	// Kind/ident mismatches are 400s at admission, never queued failures.
	if _, err := c.Submit(Request{Kind: KindExperiment, Spec: tinySpec("api-probe", 1, 1)}); err == nil {
		t.Fatalf("experiment kind with an inline spec did not 400")
	}
	if _, err := c.Submit(Request{Kind: KindSched, Spec: tinySpec("api-probe", 1, 1)}); err == nil {
		t.Fatalf("sched kind without a scheduler block did not 400")
	}
}

func TestCacheHitVsMiss(t *testing.T) {
	svc, c := newTestService(t, Config{Workers: 2, DefaultScale: 1})

	// Two spellings of the same spec (field order + explicit defaults) must
	// share one cache entry; a different seed must not.
	specA := tinySpec("cache-probe", 2, 7)
	specB := []byte(`{
		"workload": [{"kind": "burn", "threads": 1, "power_factor": 1}],
		"machine": {"cores": 1},
		"fleet": {"base_seed": 7, "machines": 2},
		"duration_s": 2,
		"violation_c": 70,
		"name": "cache-probe"
	}`)

	first, err := c.Submit(Request{Spec: specA})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if first.CacheHit {
		t.Fatalf("first submission hit the cache")
	}
	if _, err := c.Wait(context.Background(), first.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}

	second, err := c.Submit(Request{Spec: specB})
	if err != nil {
		t.Fatalf("submit (permuted): %v", err)
	}
	if !second.CacheHit {
		t.Fatalf("permuted identical submission missed the cache (keys %s vs %s)", first.Key, second.Key)
	}
	if second.State != StateDone {
		t.Fatalf("cache hit not immediately done: %s", second.State)
	}
	outA, _ := c.Output(first.ID)
	outB, _ := c.Output(second.ID)
	if outA != outB || outA == "" {
		t.Fatalf("cache hit output differs from the original run")
	}

	miss, err := c.Submit(Request{Spec: tinySpec("cache-probe", 2, 8)})
	if err != nil {
		t.Fatalf("submit (different seed): %v", err)
	}
	if miss.CacheHit {
		t.Fatalf("different seed hit the cache")
	}
	if _, err := c.Wait(context.Background(), miss.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}

	if hits := svc.cache.hits.Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{"dimd_cache_hits_total 1", "dimd_jobs_submitted_total 3", "dimd_sim_seconds_total"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestSchedDefaultPolicySharesCacheEntry(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1, DefaultScale: 1})

	first, err := c.Submit(Request{Spec: schedSpec("policy-norm")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if first.Policy != "coolest-first" {
		t.Fatalf("empty policy resolved to %q, want coolest-first", first.Policy)
	}
	if _, err := c.Wait(context.Background(), first.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// Spelling the spec's default explicitly is the same work.
	explicit, err := c.Submit(Request{Spec: schedSpec("policy-norm"), Policy: "coolest-first"})
	if err != nil {
		t.Fatalf("submit explicit: %v", err)
	}
	if !explicit.CacheHit {
		t.Fatalf("explicit default policy missed the cache (keys %s vs %s)", first.Key, explicit.Key)
	}
	// A different policy is different work.
	other, err := c.Submit(Request{Spec: schedSpec("policy-norm"), Policy: "random"})
	if err != nil {
		t.Fatalf("submit random: %v", err)
	}
	if other.CacheHit {
		t.Fatalf("different policy hit the cache")
	}
	if _, err := c.Wait(context.Background(), other.ID); err != nil {
		t.Fatalf("wait random: %v", err)
	}
}

// TestContentKeyFollowsEngine pins the content key as a function of the
// request and the daemon's own engine alone: two daemons in one process with
// different integrators address the same request differently, and each
// integrator keeps the key earlier releases computed for it, so existing
// durable data dirs stay warm.
func TestContentKeyFollowsEngine(t *testing.T) {
	want := map[string][2]string{ // integrator → keys of the two requests below
		"":      {"3b18542cae09d217758ceb602793165d27f1d0e417fce51048fe658da24757a8", "6429286d8a9311f44341440f6e34133baf8a1fb44b63cd53855459ae01b74be1"},
		"exact": {"38a9d0cf8c55581efa7814d87378a7907ff392e9baf0f7c9bc76f38efd083cbf", "594e9a335abe2dc4185638cdd07d2c418502e93b118d6c5678ef063ac02eb068"},
		"leap":  {"fbc49d3bfbe1dfa8860b277e01b760dbbb49c5da94a060a793c9bb3a443127d3", "a3df5003ce2ec09a3b559994ef56f0d7962fd6c082952d1c7af98305f4a82554"},
	}
	reqs := []Request{{Name: "fleet-diurnal", Scale: 0.05}, {Spec: tinySpec("key-probe", 3, 2)}}
	seen := map[string]string{}
	for integ, keys := range want {
		s := &Service{cfg: Config{DefaultScale: 1, Engine: engine.Config{Integrator: integ}}}
		for i, req := range reqs {
			r, err := s.resolve(req)
			if err != nil {
				t.Fatal(err)
			}
			if r.key != keys[i] {
				t.Errorf("integrator %q, request %d: key %s, want %s", integ, i, r.key, keys[i])
			}
			if other, dup := seen[r.key]; dup {
				t.Errorf("integrators %q and %q share key %s", other, integ, r.key)
			}
			seen[r.key] = integ
		}
	}
}

func TestCancelMidRun(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1, DefaultScale: 1})

	v, err := c.Submit(Request{Spec: slowSpec("cancel-probe")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := c.Job(v.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if got.State == StateRunning {
			break
		}
		if terminalState(got.State) {
			t.Fatalf("job reached %s before it could be cancelled mid-run", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ack, err := c.Cancel(v.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if ack.State == StateRunning && !ack.CancelRequested {
		t.Fatalf("cancel ack on a running job does not report cancel_requested: %+v", ack)
	}
	final, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != StateCanceled {
		t.Fatalf("cancelled job finished %s, want canceled", final.State)
	}
	if final.CancelRequested {
		t.Fatalf("terminal job still reports cancel_requested")
	}
	if _, err := c.Output(v.ID); err == nil {
		t.Fatalf("cancelled job served an output")
	}
}

func TestCancelWhileQueued(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1, QueueDepth: 8, DefaultScale: 1})

	// Occupy the single worker, then queue a victim behind it.
	blocker, err := c.Submit(Request{Spec: slowSpec("cancel-blocker")})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	victim, err := c.Submit(Request{Spec: tinySpec("cancel-victim", 1, 1)})
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	if _, err := c.Cancel(victim.ID); err != nil {
		t.Fatalf("cancel victim: %v", err)
	}
	got, err := c.Job(victim.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if got.State != StateCanceled {
		t.Fatalf("queued victim state %s, want canceled", got.State)
	}
	if _, err := c.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	if _, err := c.Wait(context.Background(), blocker.ID); err != nil {
		t.Fatalf("wait blocker: %v", err)
	}
}

// TestQueueSaturation drives 64 concurrent submissions into a deliberately
// small daemon: admissions beyond the queue bound must be refused with
// ErrBusy (429 + Retry-After over HTTP) — backpressure, not buffering — and
// every refused submission must succeed on retry once capacity frees up.
// Run under -race this doubles as the concurrency check on the
// queue/cache/stream state.
func TestQueueSaturation(t *testing.T) {
	const lanes = 64
	_, c := newTestService(t, Config{Workers: 2, QueueDepth: 4, DefaultScale: 1})

	// Pin both workers on slow jobs so the queue genuinely fills: with the
	// pool busy, at most QueueDepth tiny submissions can be admitted and
	// the rest must bounce with 429 + Retry-After.
	var blockers []string
	for i := 0; i < 2; i++ {
		v, err := c.Submit(Request{Spec: slowSpec(fmt.Sprintf("sat-blocker-%d", i))})
		if err != nil {
			t.Fatalf("submit blocker: %v", err)
		}
		blockers = append(blockers, v.ID)
	}
	waitState(t, c, blockers, StateRunning)

	var rejected atomic.Int64
	ids := make([]string, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{Spec: tinySpec("sat-probe", 1, uint64(1000+i))}
			for {
				v, err := c.Submit(req)
				if err == nil {
					ids[i] = v.ID
					return
				}
				if !IsBusy(err) {
					t.Errorf("lane %d: non-backpressure error: %v", i, err)
					return
				}
				rejected.Add(1)
				time.Sleep(10 * time.Millisecond)
			}
		}(i)
	}

	// Once backpressure has been observed, release the workers so the
	// rejected lanes' retries can land.
	deadline := time.Now().Add(10 * time.Second)
	for rejected.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, id := range blockers {
		if _, err := c.Cancel(id); err != nil {
			t.Fatalf("cancel blocker: %v", err)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if rejected.Load() == 0 {
		t.Fatalf("64 lanes against queue depth 4 with pinned workers never saturated — admission control untested")
	}
	for i, id := range ids {
		final, err := c.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("wait lane %d: %v", i, err)
		}
		if final.State != StateDone {
			t.Fatalf("lane %d finished %s: %s", i, final.State, final.Error)
		}
	}
}

// waitState polls until every job has reached the wanted (or a terminal)
// state.
func waitState(t *testing.T, c *Client, ids []string, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range ids {
		for {
			v, err := c.Job(id)
			if err != nil {
				t.Fatalf("status %s: %v", id, err)
			}
			if v.State == want || terminalState(v.State) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s waiting for %s", id, v.State, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestConcurrentAdmission64 is the acceptance-bar check: a production-shaped
// configuration admits 64 concurrent scenario submissions outright (no
// retries needed) and completes them all.
func TestConcurrentAdmission64(t *testing.T) {
	const lanes = 64
	_, c := newTestService(t, Config{Workers: 4, QueueDepth: lanes, DefaultScale: 1})

	ids := make([]string, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Submit(Request{Spec: tinySpec("herd-probe", 1, uint64(2000+i))})
			if err != nil {
				t.Errorf("lane %d: %v", i, err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, id := range ids {
		final, err := c.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("wait lane %d: %v", i, err)
		}
		if final.State != StateDone {
			t.Fatalf("lane %d finished %s: %s", i, final.State, final.Error)
		}
	}
}

func TestStreamSchedTelemetry(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1, DefaultScale: 1})

	v, err := c.Submit(Request{Spec: schedSpec("stream-probe")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v.Kind != KindSched {
		t.Fatalf("scheduler spec inferred kind %s, want sched", v.Kind)
	}
	var rounds, terminal int
	var lastSeq = -1
	err = c.Stream(context.Background(), v.ID, func(e Event) error {
		if e.Seq <= lastSeq {
			return fmt.Errorf("non-monotonic seq %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Type {
		case "round":
			if e.Round == nil {
				return fmt.Errorf("round event without payload")
			}
			rounds++
		case "done", "error":
			terminal++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if rounds == 0 {
		t.Fatalf("no round telemetry streamed")
	}
	if terminal != 1 {
		t.Fatalf("stream carried %d terminal events, want exactly 1", terminal)
	}
	// Replaying after completion yields the same events from the ring.
	var replayRounds int
	if err := c.Stream(context.Background(), v.ID, func(e Event) error {
		if e.Type == "round" {
			replayRounds++
		}
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayRounds != rounds {
		t.Fatalf("replay saw %d rounds, live saw %d", replayRounds, rounds)
	}
}

func TestStreamScenarioTelemetry(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1, DefaultScale: 1, TelemetryEvery: 5})

	spec := []byte(`{
		"name": "scn-telemetry",
		"duration_s": 10,
		"fleet": {"machines": 2, "base_seed": 9},
		"machine": {"cores": 1},
		"workload": [{"kind": "burn", "threads": 1}]
	}`)
	v, err := c.Submit(Request{Spec: spec})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var samples, completions int
	err = c.Stream(context.Background(), v.ID, func(e Event) error {
		switch e.Type {
		case "telemetry":
			if e.Machine == nil || e.Machine.MeanJunctionC <= 0 {
				return fmt.Errorf("telemetry event without a plausible payload: %+v", e)
			}
			samples++
		case "machine":
			completions++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	// 10 virtual seconds = 100 metric ticks; a sample every 5 ticks on each
	// of 2 machines = 40 samples.
	if samples != 40 {
		t.Fatalf("streamed %d telemetry samples, want 40", samples)
	}
	if completions != 2 {
		t.Fatalf("streamed %d machine completions, want 2", completions)
	}
}

func TestStreamSSEFormat(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1, DefaultScale: 1})
	v, err := c.Submit(Request{Spec: tinySpec("sse-probe", 1, 3)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Wait(context.Background(), v.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	resp, err := c.HTTP.Get(c.Base + "/v1/jobs/" + v.ID + "/stream?format=sse")
	if err != nil {
		t.Fatalf("sse get: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	var body strings.Builder
	if _, err := io.Copy(&body, resp.Body); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.Contains(body.String(), "event: done\ndata: {") {
		t.Fatalf("SSE framing missing:\n%s", body.String())
	}
}

func TestDrainRejectsAndCompletes(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8, DefaultScale: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	var ids []string
	for i := 0; i < 3; i++ {
		v, err := c.Submit(Request{Spec: tinySpec("drain-probe", 1, uint64(30+i))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- svc.Shutdown(ctx)
	}()

	// Draining flips immediately; new submissions are refused with 503.
	deadline := time.Now().Add(5 * time.Second)
	for !svc.Draining() {
		if time.Now().After(deadline) {
			t.Fatalf("service never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Submit(Request{Spec: tinySpec("drain-late", 1, 99)}); err != ErrDraining {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if !h.Draining {
		t.Fatalf("healthz does not report draining: %+v", h)
	}

	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Admitted work ran to completion during the drain.
	for _, id := range ids {
		j, err := svc.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if v := j.View(); v.State != StateDone {
			t.Fatalf("drained job %s state %s, want done", id, v.State)
		}
	}
}

func TestDrainTimeoutCancelsInFlight(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultScale: 1})
	j, err := svc.Submit(Request{Spec: slowSpec("drain-slow")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); err == nil {
		t.Fatalf("shutdown of a busy daemon returned before the slow job could finish")
	}
	if v := j.View(); v.State != StateCanceled {
		t.Fatalf("in-flight job after drain timeout: %s, want canceled", v.State)
	}
}

func TestExperimentJobsFromTable(t *testing.T) {
	const scale = 0.05
	_, c := newTestService(t, Config{Workers: 1, DefaultScale: scale})

	v, err := c.Submit(Request{Name: "fig1"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v.Kind != KindExperiment {
		t.Fatalf("kind = %s, want experiment", v.Kind)
	}
	final, err := c.Wait(context.Background(), v.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("wait: %v (state %s %s)", err, final.State, final.Error)
	}
	out, _ := c.Output(v.ID)
	e, _ := experiments.Lookup("fig1")
	if want := e.Run(scale, engine.Config{}).String() + "\n"; out != want {
		t.Fatalf("output differs from the table's harness:\n--- daemon ---\n%s\n--- table ---\n%s", out, want)
	}
	// Cache hit: same experiment+scale re-runs nothing.
	again, err := c.Submit(Request{Name: "fig1"})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !again.CacheHit {
		t.Fatalf("experiment re-submission missed the cache")
	}
	// Unknown names fail fast at admission.
	if _, err := c.Submit(Request{Name: "no-such-thing"}); err == nil {
		t.Fatalf("unknown name admitted")
	}
	cat, err := c.Catalog()
	if err != nil {
		t.Fatalf("catalog: %v", err)
	}
	if !slices.Equal(cat.Experiments, experiments.IDs()) || len(cat.Scenarios) == 0 || len(cat.Policies) == 0 {
		t.Fatalf("catalog incomplete: %+v", cat)
	}
}

func TestStreamRingBoundsMemory(t *testing.T) {
	st := newStream(16, nil)
	for i := 0; i < 100; i++ {
		st.append(Event{Type: "telemetry"})
	}
	events, next, _, evicted := st.since(0)
	if len(events) != 16 {
		t.Fatalf("ring holds %d events, want 16", len(events))
	}
	if evicted != 84 {
		t.Fatalf("evicted = %d, want 84", evicted)
	}
	if next != 100 {
		t.Fatalf("next = %d, want 100", next)
	}
	// The ring holds Seq 84..99 and wraps between 95 and 96: a replay from
	// before the window, before, at and after the wrap point, or from the
	// end reads the retained tail in Seq order.
	for _, k := range []int{0, 84, 90, 95, 96, 98, 99, 100} {
		events, _, _, _ := st.since(k)
		from := max(k, 84)
		if len(events) != next-from {
			t.Fatalf("since(%d) returned %d events, want %d", k, len(events), next-from)
		}
		for i, e := range events {
			if e.Seq != from+i {
				t.Fatalf("since(%d)[%d].Seq = %d, want %d", k, i, e.Seq, from+i)
			}
		}
	}
	// The terminal event closes the stream, and events behind it in the same
	// append are dropped with it.
	st.append(Event{Type: "done"}, Event{Type: "telemetry"})
	if _, next, closed, _ := st.since(0); !closed || next != 101 {
		t.Fatalf("after the terminal event: closed=%v next=%d, want closed at 101", closed, next)
	}
	st.append(Event{Type: "telemetry"}) // late hook fire: must not resurrect
	if st.Len() != 101 {
		t.Fatalf("append after close changed the stream")
	}
}

func TestCacheEvictionBudget(t *testing.T) {
	c := newCache(1000)
	big := &Artifact{Rendered: strings.Repeat("x", 400)}
	for i := 0; i < 5; i++ {
		c.put(fmt.Sprintf("k%d", i), big)
	}
	entries, bytes := c.stats()
	if bytes > 1000 {
		t.Fatalf("cache over budget: %d bytes", bytes)
	}
	if entries != 2 {
		t.Fatalf("entries = %d, want 2 under the budget", entries)
	}
	if _, ok := c.get("k0"); ok {
		t.Fatalf("oldest entry survived eviction")
	}
	if _, ok := c.get("k4"); !ok {
		t.Fatalf("newest entry evicted")
	}
	// Oversized artifacts are passed through, never retained.
	c.put("huge", &Artifact{Rendered: strings.Repeat("x", 2000)})
	if _, ok := c.get("huge"); ok {
		t.Fatalf("oversized artifact retained")
	}
}
