package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryRenderOrderAndFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_jobs_total", "jobs")
	c.Add(3)
	r.Gauge("t_depth", "depth", func() float64 { return 7 })
	r.Text("t_seconds", "secs", TypeGauge, func() string { return "1.500000" })
	r.CounterFunc("t_hits_total", "hits", func() int64 { return 11 })

	var b strings.Builder
	r.Render(&b)
	want := "# HELP t_jobs_total jobs\n" +
		"# TYPE t_jobs_total counter\n" +
		"t_jobs_total 3\n" +
		"# HELP t_depth depth\n" +
		"# TYPE t_depth gauge\n" +
		"t_depth 7\n" +
		"# HELP t_seconds secs\n" +
		"# TYPE t_seconds gauge\n" +
		"t_seconds 1.500000\n" +
		"# HELP t_hits_total hits\n" +
		"# TYPE t_hits_total counter\n" +
		"t_hits_total 11\n"
	if b.String() != want {
		t.Fatalf("render mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
	names := r.Names()
	wantNames := []string{"t_jobs_total counter", "t_depth gauge", "t_seconds gauge", "t_hits_total counter"}
	for i, n := range wantNames {
		if names[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "y")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat_seconds", "latency", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // (0.001, 0.01] bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // (0.1, 1] bucket
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got, want := h.Sum(), 90*0.005+10*0.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	// p50 interpolates inside the (0.001, 0.01] bucket; p99 inside (0.1, 1].
	if q := h.Quantile(0.5); q < 0.001 || q > 0.01 {
		t.Fatalf("p50 = %v, want within (0.001, 0.01]", q)
	}
	if q := h.Quantile(0.99); q < 0.1 || q > 1 {
		t.Fatalf("p99 = %v, want within (0.1, 1]", q)
	}

	var b strings.Builder
	r.Render(&b)
	doc := b.String()
	for _, line := range []string{
		"# TYPE t_lat_seconds histogram",
		`t_lat_seconds_bucket{le="0.001"} 0`,
		`t_lat_seconds_bucket{le="0.01"} 90`,
		`t_lat_seconds_bucket{le="0.1"} 90`,
		`t_lat_seconds_bucket{le="1"} 100`,
		`t_lat_seconds_bucket{le="+Inf"} 100`,
		"t_lat_seconds_count 100",
	} {
		if !strings.Contains(doc, line) {
			t.Fatalf("exposition missing %q:\n%s", line, doc)
		}
	}
}

func TestHistogramOutOfRangeGoesToInf(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_inf_seconds", "x", []float64{0.001})
	h.Observe(5)
	var b strings.Builder
	r.Render(&b)
	if !strings.Contains(b.String(), `t_inf_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("+Inf bucket missing:\n%s", b.String())
	}
	if !strings.Contains(b.String(), `t_inf_seconds_bucket{le="0.001"} 0`) {
		t.Fatalf("finite bucket should be empty:\n%s", b.String())
	}
}

func TestTracerChromeTrace(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("run", "lifecycle", 0)
	time.Sleep(time.Millisecond)
	s.EndArgs(map[string]any{"machines": 4})
	tr.Instant("done", "lifecycle", 0)

	raw, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("ChromeTrace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	x := doc.TraceEvents[0]
	if x.Name != "run" || x.Ph != "X" || x.Dur < 900 { // >= ~1ms in µs
		t.Fatalf("complete event malformed: %+v", x)
	}
	if doc.TraceEvents[1].Ph != "i" {
		t.Fatalf("instant event malformed: %+v", doc.TraceEvents[1])
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", "y", 0)
	s.End()
	s.EndArgs(map[string]any{"a": 1})
	tr.Instant("x", "y", 0)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer should report zero")
	}
	if _, err := tr.ChromeTrace(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerSpanBound(t *testing.T) {
	tr := NewTracer()
	tr.max = 4
	for i := 0; i < 10; i++ {
		tr.Start("s", "c", 0).End()
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
}

// TestConcurrentObservability is the 64-lane race pass over every obs
// primitive: counters, histogram observes, gauge renders, span recording and
// trace export all concurrent. Run with -race in CI.
func TestConcurrentObservability(t *testing.T) {
	const lanes = 64
	r := NewRegistry()
	c := r.Counter("race_total", "x")
	h := r.Histogram("race_seconds", "x", nil)
	r.Gauge("race_depth", "x", func() float64 { return float64(c.Load()) })
	tr := NewTracer()

	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				c.Inc()
				h.Observe(float64(k) * 1e-6)
				s := tr.Start("work", "race", lane)
				s.End()
				if k%50 == 0 {
					var b strings.Builder
					r.Render(&b)
					if _, err := tr.ChromeTrace(); err != nil {
						t.Error(err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Load() != lanes*200 {
		t.Fatalf("counter = %d, want %d", c.Load(), lanes*200)
	}
	if h.Count() != lanes*200 {
		t.Fatalf("histogram count = %d, want %d", h.Count(), lanes*200)
	}
	if tr.Len()+tr.Dropped() != lanes*200 {
		t.Fatalf("spans+dropped = %d, want %d", tr.Len()+tr.Dropped(), lanes*200)
	}
}

// BenchmarkHistogramObserve pins the histogram hot path.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "x", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

func TestRegistryLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_fixed_total", "fixed").Inc()
	samples := []LabeledSample{
		{Label: "http://w1:8080", Value: 1},
		{Label: "http://w2:8080", Value: 0},
	}
	r.Labeled("t_worker_up", "per-worker health", TypeGauge, "worker", func() []LabeledSample {
		return samples
	})

	var b strings.Builder
	r.Render(&b)
	want := "# HELP t_fixed_total fixed\n" +
		"# TYPE t_fixed_total counter\n" +
		"t_fixed_total 1\n" +
		"# HELP t_worker_up per-worker health\n" +
		"# TYPE t_worker_up gauge\n" +
		"t_worker_up{worker=\"http://w1:8080\"} 1\n" +
		"t_worker_up{worker=\"http://w2:8080\"} 0\n"
	if b.String() != want {
		t.Fatalf("render mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}

	// Labeled series stay out of Names() — golden name lists must not churn
	// with dynamic label sets.
	for _, n := range r.Names() {
		if strings.Contains(n, "t_worker_up") {
			t.Fatalf("labeled series leaked into Names(): %v", r.Names())
		}
	}

	// An empty sample set renders nothing, not a bare preamble.
	samples = nil
	b.Reset()
	r.Render(&b)
	if strings.Contains(b.String(), "t_worker_up") {
		t.Fatal("empty labeled series still rendered its preamble")
	}
}
