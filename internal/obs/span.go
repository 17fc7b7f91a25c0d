package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// Tracer records spans for one traced unit of work (the daemon creates one
// per job) and exports them as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. All methods are safe on a nil *Tracer —
// every call no-ops — so engines thread a tracer unconditionally and untraced
// runs pay only a nil check.
//
// Spans are bounded: past maxSpans further Start calls record nothing but
// count as dropped, so a million-machine fleet cannot balloon a job's trace.
// Span timings come from the wall clock alone; a tracer never reads or
// perturbs simulation state.
type Tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	max     int
	dropped int
	sink    SpanSink
}

type span struct {
	name    string
	cat     string
	pid     int // 0 renders as the coordinator's pid 1; >0 names a remote process track
	tid     int
	phase   byte // 'X' complete, 'i' instant
	startNS int64
	durNS   int64
	args    map[string]any
}

// SpanSink observes completed spans and instants (durNS 0) as they are
// recorded — the flight recorder's tap. It runs outside the tracer's lock
// and must be cheap and non-blocking.
type SpanSink func(name, cat string, durNS int64)

// DefaultMaxSpans bounds one tracer's retained spans.
const DefaultMaxSpans = 8192

// NewTracer returns a tracer with the default span bound.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), max: DefaultMaxSpans}
}

// Span is an in-flight span handle; End (or EndArgs) completes it. The zero
// value (from a nil tracer or an exhausted span budget) no-ops on End.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	tid   int
	start time.Time
}

// Start opens a span. cat groups spans in the trace viewer ("lifecycle",
// "scenario", "sched", "machine"); tid picks the horizontal track (0 for the
// job's main track, a machine index for per-machine tracks).
func (t *Tracer) Start(name, cat string, tid int) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, cat: cat, tid: tid, start: time.Now()}
}

// End completes the span.
func (s Span) End() { s.EndArgs(nil) }

// EndArgs completes the span with key/value annotations shown in the trace
// viewer's detail pane.
func (s Span) EndArgs(args map[string]any) {
	if s.t == nil {
		return
	}
	dur := time.Since(s.start)
	s.t.add(span{
		name: s.name, cat: s.cat, tid: s.tid, phase: 'X',
		startNS: s.start.Sub(s.t.t0).Nanoseconds(), durNS: dur.Nanoseconds(),
		args: args,
	})
}

// Instant records a zero-duration marker event.
func (t *Tracer) Instant(name, cat string, tid int) {
	if t == nil {
		return
	}
	t.add(span{name: name, cat: cat, tid: tid, phase: 'i',
		startNS: time.Since(t.t0).Nanoseconds()})
}

func (t *Tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) >= t.max {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.spans = append(t.spans, s)
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink(s.name, s.cat, s.durNS)
	}
}

// SetSink installs (or clears, with nil) the tracer's span observer. Safe on
// a nil tracer.
func (t *Tracer) SetSink(fn SpanSink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// Len returns the number of retained spans; Dropped how many the bound shed.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans the retention bound shed.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// EachOwn calls fn with the name, category and duration of every complete
// span this tracer recorded itself, in recording order — not instants, and
// not the spans Import stitched in from another process. fn runs under the
// tracer's lock and must not call back into it. Safe on a nil tracer.
func (t *Tracer) EachOwn(fn func(name, cat string, durNS int64)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.pid == 0 && s.phase == 'X' {
			fn(s.name, s.cat, s.durNS)
		}
	}
}

// chromeEvent is one element of the Chrome trace-event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`            // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"` // microseconds ('X' events)
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object flavour of the trace-event format, which
// both chrome://tracing and Perfetto load.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace renders the retained spans as Chrome trace-event JSON. It is
// safe to call while spans are still being recorded — the export is a
// snapshot.
func (t *Tracer) ChromeTrace() ([]byte, error) {
	if t == nil {
		return json.Marshal(chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"})
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, s := range spans {
		pid := s.pid
		if pid == 0 {
			pid = 1
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: string(s.phase), PID: pid, TID: s.tid,
			TS:   float64(s.startNS) / 1e3,
			Dur:  float64(s.durNS) / 1e3,
			Args: s.args,
		})
	}
	return json.Marshal(out)
}

// SpanRecord is one span in wire form: what a worker ships back alongside
// its shard results so the coordinator can stitch a cluster-wide trace.
// Timestamps are nanoseconds relative to the exporting tracer's start.
type SpanRecord struct {
	Name    string         `json:"name"`
	Cat     string         `json:"cat,omitempty"`
	Ph      string         `json:"ph"` // "X" or "i"
	TID     int            `json:"tid"`
	StartNS int64          `json:"start_ns"`
	DurNS   int64          `json:"dur_ns,omitempty"`
	Args    map[string]any `json:"args,omitempty"`
}

// Records exports the retained spans in wire form, ordered as recorded. Safe
// on nil (returns nil).
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.spans))
	for _, s := range t.spans {
		out = append(out, SpanRecord{
			Name: s.name, Cat: s.cat, Ph: string(s.phase), TID: s.tid,
			StartNS: s.startNS, DurNS: s.durNS, Args: s.args,
		})
	}
	return out
}

// Import stitches spans exported by a remote tracer into this one under
// process track pid (>= 2; the importing tracer's own spans render as pid
// 1). at is the local wall-clock instant corresponding to the remote
// tracer's start — typically captured just before the dispatch that created
// it — so remote timestamps land on this tracer's timeline. Imported spans
// count against the span bound like local ones. Safe on a nil tracer.
func (t *Tracer) Import(recs []SpanRecord, pid int, at time.Time) {
	if t == nil || len(recs) == 0 {
		return
	}
	base := at.Sub(t.t0).Nanoseconds()
	if base < 0 {
		base = 0
	}
	for _, r := range recs {
		ph := byte('X')
		if r.Ph == "i" {
			ph = 'i'
		}
		t.add(span{
			name: r.Name, cat: r.Cat, pid: pid, tid: r.TID, phase: ph,
			startNS: base + r.StartNS, durNS: r.DurNS, args: r.Args,
		})
	}
}
