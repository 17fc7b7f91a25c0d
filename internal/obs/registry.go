package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric types, used in `# TYPE` exposition lines and pinned by the golden
// exposition test.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Registry is an ordered set of metrics rendered as one Prometheus text
// exposition document. Registration order is render order — dashboards see a
// stable document layout — and names are unique (a duplicate registration
// panics, because two owners of one series is a programming error).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// metric is anything the registry can render.
type metric interface {
	// meta returns the metric's name, help string and exposition type.
	meta() (name, help, typ string)
	// writeValue appends the sample line(s) — everything after the # HELP /
	// # TYPE preamble.
	writeValue(b *strings.Builder)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) register(m metric) {
	name, _, _ := m.meta()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers a monotonically increasing int64 counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Gauge registers a gauge whose value is read at render time from fn.
// Values render through %v, so integral floats print without a decimal
// point — byte-stable with the hand-rolled exposition this registry
// replaced.
func (r *Registry) Gauge(name, help string, fn func() float64) *Gauge {
	g := &Gauge{name: name, help: help, fn: fn}
	r.register(g)
	return g
}

// CounterFunc registers a counter whose value is read at render time from fn
// — for counts owned by another structure (the result cache's hit/miss
// atomics) that should not move behind two owners.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(&funcCounter{name: name, help: help, fn: fn})
}

// Text registers a metric of the given exposition type whose rendered value
// is produced verbatim by fn — the escape hatch for values with pinned
// formatting (the daemon's "%.6f" second accumulators).
func (r *Registry) Text(name, help, typ string, fn func() string) {
	r.register(&textMetric{name: name, help: help, typ: typ, fn: fn})
}

// Histogram registers a fixed-bucket histogram. Buckets are upper bounds in
// ascending order; the +Inf bucket is implicit. A nil buckets slice selects
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	h := &Histogram{name: name, help: help, bounds: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
	r.register(h)
	return h
}

// Collect registers a free-form collector rendered after every registered
// metric — the seam for dynamically keyed series like the daemon's per-layer
// job times. The collector must emit complete, well-formed
// exposition lines (including its own # HELP/# TYPE preamble).
func (r *Registry) Collect(fn func(b *strings.Builder)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, collectorMetric(fn))
}

// LabeledSample is one sample of a labeled series: `name{labelKey="Label"} Value`.
type LabeledSample struct {
	Label string
	Value float64
}

// Labeled registers a dynamically keyed labeled series — one # HELP/# TYPE
// preamble, then one sample line per entry fn returns at render time, in fn's
// order (callers emit a stable order so scrapes diff cleanly). It rides the
// Collect slot, so like any collector it renders after the fixed metrics and
// stays out of Names() — golden name lists don't churn when label sets do.
func (r *Registry) Labeled(name, help, typ, labelKey string, fn func() []LabeledSample) {
	r.Collect(func(b *strings.Builder) {
		samples := fn()
		if len(samples) == 0 {
			return
		}
		fmt.Fprintf(b, "# HELP %s %s\n", name, help)
		fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
		for _, s := range samples {
			fmt.Fprintf(b, "%s{%s=%q} %v\n", name, labelKey, s.Label, s.Value)
		}
	})
}

// Render writes the exposition document.
func (r *Registry) Render(b *strings.Builder) {
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		if c, ok := m.(collectorMetric); ok {
			c(b)
			continue
		}
		name, help, typ := m.meta()
		fmt.Fprintf(b, "# HELP %s %s\n", name, help)
		fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
		m.writeValue(b)
	}
}

// Names returns the registered metric names with their exposition types, in
// render order — what the golden exposition test pins.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, m := range r.metrics {
		if _, ok := m.(collectorMetric); ok {
			continue
		}
		name, _, typ := m.meta()
		out = append(out, name+" "+typ)
	}
	return out
}

// collectorMetric adapts a render function to the metric slot.
type collectorMetric func(b *strings.Builder)

func (collectorMetric) meta() (string, string, string) { return "", "", "" }
func (collectorMetric) writeValue(b *strings.Builder)  {}

// Counter is a monotonically increasing int64. Store exists for boot-time
// initialisation from recovered state (the WAL replay count); it must not be
// used to move a live counter backwards.
type Counter struct {
	name, help string
	v          atomic.Int64
}

func (c *Counter) Add(n int64)   { c.v.Add(n) }
func (c *Counter) Inc()          { c.v.Add(1) }
func (c *Counter) Store(n int64) { c.v.Store(n) }
func (c *Counter) Load() int64   { return c.v.Load() }

func (c *Counter) meta() (string, string, string) { return c.name, c.help, TypeCounter }
func (c *Counter) writeValue(b *strings.Builder) {
	b.WriteString(c.name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(c.v.Load(), 10))
	b.WriteByte('\n')
}

// Gauge reads its value at render time.
type Gauge struct {
	name, help string
	fn         func() float64
}

func (g *Gauge) meta() (string, string, string) { return g.name, g.help, TypeGauge }
func (g *Gauge) writeValue(b *strings.Builder) {
	fmt.Fprintf(b, "%s %v\n", g.name, g.fn())
}

type textMetric struct {
	name, help, typ string
	fn              func() string
}

func (g *textMetric) meta() (string, string, string) { return g.name, g.help, g.typ }
func (g *textMetric) writeValue(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", g.name, g.fn())
}

type funcCounter struct {
	name, help string
	fn         func() int64
}

func (c *funcCounter) meta() (string, string, string) { return c.name, c.help, TypeCounter }
func (c *funcCounter) writeValue(b *strings.Builder) {
	fmt.Fprintf(b, "%s %d\n", c.name, c.fn())
}

// DefBuckets spans microsecond fsyncs to multi-second fleet runs — one fixed
// set for every daemon latency histogram, so percentile queries line up
// across series.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram of float64 observations (seconds, by
// daemon convention). Observations are lock-free: one atomic add on the
// owning bucket plus a CAS loop folding the sum.
type Histogram struct {
	name, help string
	bounds     []float64      // ascending upper bounds; +Inf implicit
	counts     []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits    atomic.Uint64  // Float64bits of the observation sum
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		new := floatBits(floatFrom(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return floatFrom(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0..1) by linear interpolation within
// the owning bucket — the same estimate a PromQL histogram_quantile gives.
// Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		inBucket := h.counts[i].Load()
		prev := cum
		cum += inBucket
		if float64(cum) < rank {
			continue
		}
		if i == len(h.bounds) { // +Inf bucket: clamp to the last finite bound
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		width := h.bounds[i] - lo
		if inBucket == 0 {
			return h.bounds[i]
		}
		return lo + width*(rank-float64(prev))/float64(inBucket)
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) meta() (string, string, string) { return h.name, h.help, TypeHistogram }
func (h *Histogram) writeValue(b *strings.Builder) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.name, formatBound(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", h.name, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(b, "%s_count %d\n", h.name, cum)
}

func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }
