package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// ShardRequest is the wire form of one shard dispatch: the full scenario spec
// (workers hold no catalog state — every dispatch is self-contained and
// independently reproducible), the scale, the machine range, and the indices
// the coordinator already has. Integrator pins the coordinator's engine
// integrator: a worker configured differently would compute different bytes,
// so it must refuse rather than silently diverge.
type ShardRequest struct {
	Spec       json.RawMessage `json:"spec"`
	Scale      float64         `json:"scale"`
	Shard      cluster.Shard   `json:"shard"`
	Skip       []int           `json:"skip,omitempty"`
	Integrator string          `json:"integrator,omitempty"`
	// Job is the coordinator's job ID — trace context propagated with the
	// dispatch. The worker tags its heat-map rows "<job>/s<shard>" (so a
	// coordinator can stitch a fleet-wide heat map) and returns its shard
	// spans on the terminal line for the coordinator to import under this
	// job's trace. Empty (an old coordinator) disables both; note the
	// DisallowUnknownFields decode means coordinators must not send this
	// field to pre-PR-10 workers — mixed-version clusters should upgrade
	// workers first.
	Job string `json:"job,omitempty"`
}

// shardLine is one NDJSON line of a shard result stream: a machine result, a
// mid-stream engine error, or the terminal confirmation. The terminal line is
// load-bearing — a stream that ends without one was cut, and the coordinator
// re-dispatches the missing machines.
type shardLine struct {
	Machine *scenario.MachineResult `json:"machine,omitempty"`
	Error   string                  `json:"error,omitempty"`
	Done    bool                    `json:"done,omitempty"`
	Count   int                     `json:"count,omitempty"`
	// Spans rides the terminal line: the worker's shard spans, exported for
	// the coordinator to stitch into the job's cluster-wide trace.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// handleShardRun executes one shard on this daemon for a remote coordinator,
// streaming NDJSON results as machines complete. Fault points (worker side):
// cluster.shard.stall swallows the request without a byte until the client
// hangs up (the coordinator sees a silent stall → lease expiry), and
// cluster.result.partial cuts the stream after the first machine without the
// terminal line (the coordinator sees truncation → redispatch-with-skip).
func (s *Service) handleShardRun(w http.ResponseWriter, r *http.Request) {
	if faultinject.Hit(faultinject.ClusterShardStall) {
		// A wedged worker behind a live TCP session: consume the request,
		// answer nothing, and hold on until the coordinator hangs up. The
		// explicit CloseNotify is load-bearing — with the response unstarted
		// the server runs no background read, so the request context alone
		// would never observe the coordinator's disconnect.
		_, _ = io.Copy(io.Discard, r.Body)
		if cn, ok := w.(http.CloseNotifier); ok {
			select {
			case <-cn.CloseNotify():
			case <-r.Context().Done():
			}
		} else {
			<-r.Context().Done()
		}
		return
	}
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	var req ShardRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding shard request: %w", err))
		return
	}
	if !(req.Scale > 0) || req.Scale > MaxScale {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("scale %v outside (0,%v]", req.Scale, MaxScale))
		return
	}
	spec, err := scenario.Decode(req.Spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Engines agree when they would run this spec under the same integrator;
	// the raw settings may differ ("" and "leap" both run scenarios leaped).
	if want, have := spec.Integrator(req.Integrator), spec.Integrator(s.cfg.Engine.Integrator); want != have {
		writeErr(w, http.StatusConflict, fmt.Errorf(
			"integrator mismatch: coordinator runs %q, this worker would run %q — results would diverge",
			want, have))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	partial := faultinject.Hit(faultinject.ClusterResultPartial)
	var (
		emu   sync.Mutex
		enc   = json.NewEncoder(w)
		count int
		cut   bool
	)
	// Trace context propagated on the dispatch: the worker records its own
	// shard spans (returned on the terminal line) and folds telemetry into
	// its local heat map under "<job>/s<shard>" so the coordinator's merged
	// frame covers the whole sharded fleet. A shard has no job stream, so it
	// folds straight into the map, and its end drops the row.
	tr := obs.NewTracer()
	spShard := tr.Start(fmt.Sprintf("shard-%02d", req.Shard.ID), "shard", req.Shard.ID)
	var heatKey string
	if req.Job != "" {
		heatKey = fmt.Sprintf("%s/s%d", req.Job, req.Shard.ID)
		defer s.heat.fold(heatKey, Event{Type: "done"})
	}
	_, err = scenario.RunShard(spec, req.Scale, req.Shard.From, req.Shard.To, req.Skip, scenario.RunOptions{
		Engine:         s.cfg.Engine,
		PropStore:      s.props,
		Context:        ctx,
		TelemetryEvery: s.cfg.TelemetryEvery,
		OnTelemetry: func(sm scenario.MachineSample) {
			if heatKey != "" {
				s.heat.fold(heatKey, Event{Type: "telemetry", Machine: sampleEvent(sm)})
			}
		},
		OnMachine: func(m scenario.MachineResult) {
			emu.Lock()
			defer emu.Unlock()
			if cut {
				return
			}
			if enc.Encode(shardLine{Machine: &m}) != nil {
				cut = true
				cancel() // client gone: stop simulating for nobody
				return
			}
			count++
			if flusher != nil {
				flusher.Flush()
			}
			if partial {
				// Injected network fault: die mid-stream, terminal line never
				// sent. The machines already delivered stay delivered.
				cut = true
				cancel()
			}
		},
	})
	spShard.EndArgs(map[string]any{
		"from": req.Shard.From, "to": req.Shard.To,
		"skip": len(req.Skip), "machines": count,
	})
	emu.Lock()
	defer emu.Unlock()
	if cut {
		return // cut streams end without a terminal line, by design
	}
	if err != nil {
		// Mid-stream engine error: headers are long gone, so the error rides
		// the stream. The coordinator surfaces it as the attempt's failure.
		_ = enc.Encode(shardLine{Error: err.Error()})
		return
	}
	_ = enc.Encode(shardLine{Done: true, Count: count, Spans: tr.Records()})
	if flusher != nil {
		flusher.Flush()
	}
	s.met.cluServed.Add(1)
}

// handleClusterHealth is the worker heartbeat probe. The
// cluster.heartbeat.drop fault point makes a healthy worker answer 503 — how
// the chaos suite makes a coordinator mark a live worker unhealthy without
// killing it.
func (s *Service) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	if faultinject.Hit(faultinject.ClusterHeartbeatDrop) {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("faultinject: heartbeat dropped"))
		return
	}
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// ClusterStatus is the coordinator's worker-fleet status document.
type ClusterStatus struct {
	// Enabled reports whether this daemon runs in coordinator mode.
	Enabled bool `json:"enabled"`
	// Workers and Healthy count the static worker set and its live subset.
	Workers int `json:"workers"`
	Healthy int `json:"healthy"`
	// Detail is each worker's health/breaker/load snapshot, in config order.
	Detail []cluster.WorkerStatus `json:"detail,omitempty"`
}

func (s *Service) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ClusterStatus())
}

// ClusterStatus snapshots the worker fleet; Enabled is false on single-node
// daemons and plain workers.
func (s *Service) ClusterStatus() ClusterStatus {
	if s.clu == nil {
		return ClusterStatus{}
	}
	mon := s.clu.Monitor()
	return ClusterStatus{
		Enabled: true,
		Workers: mon.WorkerCount(),
		Healthy: mon.HealthyCount(),
		Detail:  mon.Snapshot(),
	}
}
