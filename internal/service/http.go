package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs                submit (429 + Retry-After under backpressure)
//	GET    /v1/jobs                list jobs
//	GET    /v1/jobs/{id}           job status
//	DELETE /v1/jobs/{id}           cancel
//	GET    /v1/jobs/{id}/stream    telemetry stream (NDJSON; SSE on request)
//	GET    /v1/jobs/{id}/output    rendered report (text/plain; byte-identical to dimctl)
//	GET    /v1/jobs/{id}/files     artefact names (JSON list)
//	GET    /v1/jobs/{id}/files/{name}  one CSV artefact (byte-identical to dimctl export)
//	POST   /v1/shards              execute one shard for a remote coordinator (NDJSON stream)
//	GET    /v1/cluster/health      worker heartbeat probe (503 when unable to take shards)
//	GET    /v1/cluster/status      coordinator's worker-fleet status
//	GET    /v1/catalog             experiments, scenarios, policies
//	GET    /v1/fleet/heat          live fleet heat-map (SSE; ?once=1 for one JSON frame)
//	GET    /v1/snapshot            content-hashed full-state snapshot
//	GET    /v1/incidents           flight-recorder incident dumps (summaries)
//	GET    /v1/incidents/{id}      one full incident dump
//	GET    /healthz                liveness + drain state
//	GET    /metrics                Prometheus text exposition
//	GET    /debug/trace/{id}       job trace (Chrome trace-event JSON)
//	GET    /debug/pprof/...        net/http/pprof profiles
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/output", s.handleOutput)
	mux.HandleFunc("GET /v1/jobs/{id}/files", s.handleFiles)
	mux.HandleFunc("GET /v1/jobs/{id}/files/{name}", s.handleFile)
	mux.HandleFunc("POST /v1/shards", s.handleShardRun)
	mux.HandleFunc("GET /v1/cluster/health", s.handleClusterHealth)
	mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /v1/fleet/heat", s.handleHeat)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/incidents", s.handleIncidents)
	mux.HandleFunc("GET /v1/incidents/{id}", s.handleIncident)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	// pprof registers on the DefaultServeMux via init; the daemon serves an
	// explicit mux, so route the handlers by hand.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// apiError is the uniform error document.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	defer func(t0 time.Time) {
		s.met.submitLatency.Observe(time.Since(t0).Seconds())
	}(time.Now())
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	j, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrBusy):
		// Backpressure, not failure: the client should retry after the
		// queue has drained a little.
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusAccepted
	if j.Terminal() { // cache hit: already done
		status = http.StatusOK
	}
	writeJSON(w, status, j.View())
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Service) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.View())
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(j.ID); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Service) handleOutput(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	art := j.artifactRef()
	if art == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s; output exists once done", j.ID, j.View().State))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(art.Rendered))
}

func (s *Service) handleFiles(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	art := j.artifactRef()
	if art == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s; files exist once done", j.ID, j.View().State))
		return
	}
	names := make([]string, len(art.Files))
	for i, f := range art.Files {
		names[i] = f.Name
	}
	writeJSON(w, http.StatusOK, names)
}

func (s *Service) handleFile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	art := j.artifactRef()
	if art == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s; files exist once done", j.ID, j.View().State))
		return
	}
	name := r.PathValue("name")
	for _, f := range art.Files {
		if f.Name == name {
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			_, _ = w.Write([]byte(f.Content))
			return
		}
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("job %s has no file %q", j.ID, name))
}

// Catalog is the daemon's work vocabulary.
type Catalog struct {
	Experiments    []string `json:"experiments"`
	Scenarios      []string `json:"scenarios"`
	SchedScenarios []string `json:"sched_scenarios"`
	Policies       []string `json:"policies"`
}

func (s *Service) handleCatalog(w http.ResponseWriter, r *http.Request) {
	cat := Catalog{Experiments: experiments.IDs(), Policies: scenario.PlacementPolicies}
	for _, name := range scenario.Names() {
		cat.Scenarios = append(cat.Scenarios, name)
		if spec, ok := scenario.Get(name); ok && spec.Scheduler != nil {
			cat.SchedScenarios = append(cat.SchedScenarios, name)
		}
	}
	writeJSON(w, http.StatusOK, cat)
}

// Health is the liveness document.
type Health struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", Draining: s.Draining()}
	status := http.StatusOK
	if h.Draining {
		// Load balancers should stop routing here while we drain.
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.met.reg.Render(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// handleTrace serves a job's lifecycle/engine spans as Chrome trace-event
// JSON — load it in chrome://tracing or Perfetto, or via `dimctl trace`. The
// export is a snapshot; a running job serves its spans so far.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	raw, err := j.Trace().ChromeTrace()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// handleHeat serves the live fleet heat-map. Default is SSE: one JSON
// HeatFrame per interval (?interval_ms, default 500, floor 100) until the
// client disconnects. ?once=1 returns a single frame as plain JSON — what
// `dimctl top -once` and scripted checks use.
func (s *Service) handleHeat(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("once") == "1" {
		writeJSON(w, http.StatusOK, s.clusterHeat(r.Context()))
		return
	}
	interval := 500 * time.Millisecond
	if ms := r.URL.Query().Get("interval_ms"); ms != "" {
		if n, err := strconv.Atoi(ms); err == nil && n >= 100 {
			interval = time.Duration(n) * time.Millisecond
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if _, err := fmt.Fprint(w, "event: heat\ndata: "); err != nil {
			return
		}
		if err := enc.Encode(s.clusterHeat(r.Context())); err != nil { // Encode appends \n
			return
		}
		if _, err := fmt.Fprint(w, "\n"); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

// handleStream serves the job's telemetry as NDJSON (default) or SSE (when
// the client prefers text/event-stream). It replays from the beginning,
// ?from=seq, or — for reconnecting SSE clients — the Last-Event-ID request
// header (resuming at that ID + 1, the EventSource contract; every SSE event
// carries an id: line so the browser can offer it back). It follows live
// until the job reaches a terminal state, and always ends with the terminal
// "done"/"error" event — so a reader can treat stream end as job completion.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream") ||
		r.URL.Query().Get("format") == "sse"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	seq := 0
	if from := r.URL.Query().Get("from"); from != "" {
		if n, err := strconv.Atoi(from); err == nil && n >= 0 {
			seq = n
		}
	} else if last := r.Header.Get("Last-Event-ID"); last != "" {
		if n, err := strconv.Atoi(last); err == nil && n >= 0 {
			seq = n + 1
		}
	}
	t0 := time.Now()
	waitingFirst := true
	enc := json.NewEncoder(w)
	writeEvent := func(e Event) error {
		if sse {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: ", e.Seq, e.Type); err != nil {
				return err
			}
			if err := enc.Encode(e); err != nil { // Encode appends \n
				return err
			}
			_, err := fmt.Fprint(w, "\n")
			return err
		}
		return enc.Encode(e)
	}
	for {
		events, next, closed, evicted := j.stream.since(seq)
		if evicted > 0 {
			// The gap takes the first evicted entry's sequence number, so
			// the stream stays strictly monotonic through it.
			if writeEvent(Event{Seq: seq, Type: "gap", Job: j.ID, Dropped: evicted}) != nil {
				return
			}
		}
		for _, e := range events {
			if writeEvent(e) != nil {
				return
			}
		}
		seq = next
		if flusher != nil {
			flusher.Flush()
		}
		if waitingFirst && (len(events) > 0 || evicted > 0) {
			// Time-to-first-event: what a subscriber waited before telemetry
			// started flowing.
			s.met.streamLatency.Observe(time.Since(t0).Seconds())
			waitingFirst = false
		}
		if closed {
			return
		}
		select {
		case <-j.stream.wait(seq):
		case <-r.Context().Done():
			return
		}
	}
}
