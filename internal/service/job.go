package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/wal"
)

// Job kinds — the vocabulary of Request.Kind. Empty is inferred: an inline
// or registered scenario routes to "scenario" or "sched" by the presence of
// its scheduler block, a name in the experiment table routes to
// "experiment".
const (
	KindExperiment   = "experiment"    // one paper harness by ID
	KindScenario     = "scenario"      // independent per-machine fleet
	KindSched        = "sched"         // scheduled fleet, one placement policy
	KindSchedCompare = "sched-compare" // scheduled fleet swept over all policies
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Request is one submission: what to simulate and at what scale. Exactly one
// of Name (a registered experiment/scenario) or Spec (an inline scenario
// document, the same JSON `internal/scenario` decodes) identifies the work.
type Request struct {
	// Kind is one of the Kind* constants; empty is inferred from Name/Spec.
	Kind string `json:"kind,omitempty"`
	// Name is a registered experiment ID or scenario name.
	Name string `json:"name,omitempty"`
	// Spec is an inline scenario spec; it is validated like any other.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Policy overrides the placement policy for kind "sched".
	Policy string `json:"policy,omitempty"`
	// Scale is the experiment scale; 0 selects the daemon's default.
	Scale float64 `json:"scale,omitempty"`
	// Idempotent marks a retried submission: if a non-failed job with the
	// same content key is already tracked, it is returned instead of forking
	// a duplicate run. Determinism makes this safe — the duplicate would
	// produce identical bytes anyway.
	Idempotent bool `json:"idempotent,omitempty"`
}

// MaxScale bounds a submission's scale: a hostile request cannot ask for
// runs longer than 4x the paper's.
const MaxScale = 4.0

// resolved is a request after validation: the concrete work item plus its
// content address.
type resolved struct {
	kind   string
	expID  string
	spec   *scenario.Spec
	policy string
	scale  float64
	// key is the content address: identical resolved work always produces
	// identical bytes, so the cache can answer without re-simulating.
	key string
}

// resolve validates the request against the catalog and computes its content
// address. The key folds in everything that feeds the output bytes: the
// canonical spec hash (or experiment ID), the placement policy, the scale,
// and the process-wide integrator override.
func (s *Service) resolve(req Request) (*resolved, error) {
	r := &resolved{kind: req.Kind, policy: req.Policy, scale: req.Scale}
	if r.scale == 0 {
		r.scale = s.cfg.DefaultScale
	}
	if !(r.scale > 0) || r.scale > MaxScale {
		return nil, fmt.Errorf("scale %v outside (0,%v]", r.scale, MaxScale)
	}

	if len(req.Spec) > 0 {
		if req.Name != "" {
			return nil, fmt.Errorf("submit either name or spec, not both")
		}
		spec, err := scenario.Decode(req.Spec)
		if err != nil {
			return nil, err
		}
		r.spec = spec
	} else if req.Name != "" {
		if r.kind == KindExperiment || (r.kind == "" && s.isExperiment(req.Name)) {
			r.kind = KindExperiment
			r.expID = req.Name
			if !s.isExperiment(req.Name) {
				return nil, fmt.Errorf("unknown experiment %q", req.Name)
			}
		} else {
			spec, ok := scenario.Get(req.Name)
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q", req.Name)
			}
			r.spec = spec
		}
	} else {
		return nil, fmt.Errorf("submit needs a name or an inline spec")
	}

	switch r.kind {
	case KindExperiment:
		if r.expID == "" {
			return nil, fmt.Errorf("experiment jobs take a name, not an inline spec")
		}
		if r.policy != "" {
			return nil, fmt.Errorf("policy does not apply to experiment jobs")
		}
	case "", KindScenario:
		// A scheduler block routes to the cross-machine engine under the
		// spec's default policy — exactly what `dimctl scenario run` does.
		if r.spec.Scheduler != nil {
			r.kind = KindSched
		} else {
			r.kind = KindScenario
			if r.policy != "" {
				return nil, fmt.Errorf("policy applies only to scheduled scenarios")
			}
		}
	case KindSched, KindSchedCompare:
		if r.spec.Scheduler == nil {
			return nil, fmt.Errorf("scenario %q has no scheduler block", r.spec.Name)
		}
	default:
		return nil, fmt.Errorf("unknown job kind %q", r.kind)
	}
	if r.kind == KindSched {
		if r.policy != "" && !scenario.ValidPlacementPolicy(r.policy) {
			return nil, fmt.Errorf("unknown placement policy %q (valid: %v)", r.policy, scenario.PlacementPolicies)
		}
		// Normalize to the effective policy, so "" and an explicit spelling
		// of the spec's default share one content address (they run the
		// same simulation and produce identical bytes).
		if r.policy == "" {
			r.policy = r.spec.Scheduler.Policy
		}
		if r.policy == "" {
			r.policy = scenario.PlaceCoolestFirst
		}
	}
	if r.kind == KindSchedCompare && r.policy != "" {
		return nil, fmt.Errorf("policy does not apply to sched-compare jobs (all policies run)")
	}

	var ident string
	if r.kind == KindExperiment {
		ident = "exp:" + r.expID
	} else {
		h, err := r.spec.Hash()
		if err != nil {
			return nil, err
		}
		ident = "spec:" + h
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%s|%s|%s|%g|%s",
		r.kind, ident, r.policy, r.scale, machine.IntegratorOverride()))
	r.key = hex.EncodeToString(sum[:])
	return r, nil
}

func (s *Service) isExperiment(name string) bool {
	if s.cfg.Experiments.IDs == nil {
		return false
	}
	for _, id := range s.cfg.Experiments.IDs() {
		if id == name {
			return true
		}
	}
	return false
}

// Artifact is one completed job's output: the rendered report (byte-identical
// to the matching dimctl run) and the plot-ready CSV artefacts
// (byte-identical to the matching dimctl export). SimSeconds is the virtual
// machine-time the run covered — the unit the /metrics throughput gauge
// counts.
type Artifact struct {
	Rendered   string
	Files      []export.File
	SimSeconds float64
}

// size is the artifact's retained-memory estimate for the cache budget.
func (a *Artifact) size() int64 {
	n := int64(len(a.Rendered))
	for _, f := range a.Files {
		n += int64(len(f.Name) + len(f.Content))
	}
	return n
}

// Job is one tracked submission. All mutable state is guarded by mu; the
// HTTP layer reads through View and the stream.
type Job struct {
	ID  string
	Key string

	kind   string
	name   string // experiment ID or scenario name
	policy string
	scale  float64

	res    *resolved
	stream *stream

	// trace records the job's lifecycle and engine spans; queueSpan is the
	// open "queue" span between admission and worker pickup. Both are safe
	// when zero (nil tracer no-ops), which recovered pre-tracing jobs rely on.
	trace     *obs.Tracer
	queueSpan obs.Span
	// enqueued is when the job actually entered the admission queue — for
	// recovered jobs that is boot time, not the original submission time, so
	// the queue-wait histogram measures this process's queue, not the outage.
	enqueued time.Time

	// recovered marks a job re-enqueued from the journal at boot, set before
	// any worker runs. resume is its open resume log on durable daemons.
	recovered bool
	resume    *wal.Log

	// machStates holds final per-machine thermal states captured through the
	// pure machine.Checkpoint() observer, for the fleet snapshot. Bounded:
	// only indices below maxSnapshotStates are kept, so the retained set is
	// deterministic regardless of completion order. checkpoint is the resume
	// token while the job holds a resume log, each durable record folded in
	// (read it through resumeToken). Both are guarded by stMu (its own lock —
	// engine workers update them and must not contend with the state lock).
	stMu       sync.Mutex
	machStates map[int]machine.State
	checkpoint *JobCheckpoint

	mu          sync.Mutex
	state       string
	err         string
	cacheHit    bool
	cancelAsked bool
	// degraded marks a clustered job that completed with at least one shard
	// run on the coordinator because no healthy worker could take it. The
	// result bytes are still correct (determinism), but the operator asked
	// for distributed execution and did not fully get it.
	degraded   bool
	submitted  time.Time
	started    time.Time
	finished   time.Time
	artifact   *Artifact
	cancelFunc func()
}

// JobView is the status document served over HTTP.
type JobView struct {
	ID       string  `json:"id"`
	Kind     string  `json:"kind"`
	Name     string  `json:"name,omitempty"`
	Policy   string  `json:"policy,omitempty"`
	Scale    float64 `json:"scale"`
	Key      string  `json:"key"`
	State    string  `json:"state"`
	CacheHit bool    `json:"cache_hit"`
	// Degraded reports a clustered run that fell back to local execution for
	// one or more shards (results are still byte-correct; capacity was not).
	Degraded bool `json:"degraded,omitempty"`
	// CancelRequested reports that a running job's context has been
	// cancelled but the engine has not yet reached its next cancellation
	// point (metric tick or round barrier).
	CancelRequested bool   `json:"cancel_requested,omitempty"`
	Error           string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Files lists the exportable artefact names once the job is done.
	Files []string `json:"files,omitempty"`
	// SimSeconds is the virtual machine-time simulated (0 until done).
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// Events is the number of telemetry events emitted so far.
	Events int `json:"events"`
}

// View snapshots the job for the API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.ID, Kind: j.kind, Name: j.name, Policy: j.policy,
		Scale: j.scale, Key: j.Key, State: j.state, CacheHit: j.cacheHit,
		Degraded:        j.degraded,
		CancelRequested: j.cancelAsked && !terminalState(j.state),
		Error:           j.err, SubmittedAt: j.submitted, Events: j.stream.Len(),
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.artifact != nil {
		v.SimSeconds = j.artifact.SimSeconds
		for _, f := range j.artifact.Files {
			v.Files = append(v.Files, f.Name)
		}
	}
	return v
}

// markDegraded records that this job's clustered run fell back to local
// execution for at least one shard.
func (j *Job) markDegraded() {
	j.mu.Lock()
	j.degraded = true
	j.mu.Unlock()
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalState(j.state)
}

func terminalState(st string) bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// artifactRef returns the completed artifact, if any.
func (j *Job) artifactRef() *Artifact {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.artifact
}

// Trace returns the job's tracer; nil when the job predates tracing (restored
// terminal jobs). Safe to export concurrently with a running job — the tracer
// snapshots.
func (j *Job) Trace() *obs.Tracer { return j.trace }

// maxSnapshotStates bounds per-job retained machine states: the first
// maxSnapshotStates fleet indices tell the thermal story, and keeping a
// fixed index range (rather than first-N-to-finish) keeps the retained set
// deterministic under concurrent completion.
const maxSnapshotStates = 64

// captureState retains one machine's final thermal state for the fleet
// snapshot. It is the RunOptions.OnState hook — a pure observation of
// machine.Checkpoint(), so capturing never perturbs the run.
func (j *Job) captureState(index int, st machine.State) {
	if index < 0 || index >= maxSnapshotStates {
		return
	}
	j.stMu.Lock()
	if j.machStates == nil {
		j.machStates = make(map[int]machine.State, maxSnapshotStates)
	}
	j.machStates[index] = st
	j.stMu.Unlock()
}

// MachineStateSnap is one retained machine state in a job's snapshot entry.
type MachineStateSnap struct {
	Index int           `json:"index"`
	State machine.State `json:"state"`
}

// statesSnapshot renders the retained machine states index-sorted.
func (j *Job) statesSnapshot() []MachineStateSnap {
	j.stMu.Lock()
	defer j.stMu.Unlock()
	if len(j.machStates) == 0 {
		return nil
	}
	out := make([]MachineStateSnap, 0, len(j.machStates))
	for i, st := range j.machStates {
		out = append(out, MachineStateSnap{Index: i, State: st})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}
