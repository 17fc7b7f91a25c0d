package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/wal"
)

// SnapshotVersion is the snapshot document's schema version; dimctl refuses
// versions it does not know.
const SnapshotVersion = 1

// Snapshot is the full-state document behind GET /v1/snapshot: queue,
// in-flight jobs with their resume tokens, per-machine thermal states
// (captured through the pure machine.Checkpoint() observer), cluster health
// tables, and the live heat frame — everything an operator needs to
// reconstruct an incident offline.
//
// The document is canonical and content-hashed: Hash covers only the
// deterministic core (daemon configuration and per-job identity, spec,
// checkpoint, and machine states — timestamps, live health booleans and
// heat frames are excluded), so two snapshots of the same quiesced daemon
// hash identically and an exported incident bundle can name the exact fleet
// state it came from.
type Snapshot struct {
	Version int       `json:"version"`
	TakenAt time.Time `json:"taken_at"`
	// Hash is the sha256 of the canonical core (see hashCore).
	Hash string `json:"hash"`

	Daemon     SnapshotDaemon `json:"daemon"`
	QueueDepth int            `json:"queue_depth"`
	Jobs       []JobSnapshot  `json:"jobs,omitempty"`

	// Cluster carries the lease/breaker/health tables on coordinators.
	Cluster *ClusterStatus `json:"cluster,omitempty"`
	// Heat is the live fleet heat frame at capture.
	Heat HeatFrame `json:"heat"`
	// FlightRecords reports the recorder ring's fill at capture.
	FlightRecords int `json:"flight_records"`
	// Journal is the WAL's write totals on durable daemons — how much journal
	// crash recovery would replay, and whether a torn-tail window was open.
	Journal *wal.Stats `json:"journal,omitempty"`
}

// SnapshotDaemon is the daemon-configuration half of a snapshot's hashed
// core: the knobs that determine what a replay of the snapshot's jobs would
// compute.
type SnapshotDaemon struct {
	Workers        int      `json:"workers"`
	QueueCapacity  int      `json:"queue_capacity"`
	DefaultScale   float64  `json:"default_scale"`
	Integrator     string   `json:"integrator,omitempty"`
	Durable        bool     `json:"durable"`
	ClusterWorkers []string `json:"cluster_workers,omitempty"`
}

// JobSnapshot is one job's entry: identity, state, the canonical spec it
// resolved to, its resume token (what an in-flight job's resume log folds
// to), and the retained per-machine thermal states. Spec plus Checkpoint is
// exactly what `dimctl incident export` turns into a replayable bundle.
type JobSnapshot struct {
	ID     string  `json:"id"`
	Key    string  `json:"key"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name,omitempty"`
	Policy string  `json:"policy,omitempty"`
	Scale  float64 `json:"scale"`

	State     string `json:"state"`
	Degraded  bool   `json:"degraded,omitempty"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`

	Spec          json.RawMessage    `json:"spec,omitempty"`
	Checkpoint    *JobCheckpoint     `json:"checkpoint,omitempty"`
	MachineStates []MachineStateSnap `json:"machine_states,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// BuildSnapshot captures the daemon's current state. It takes the job table
// lock briefly per job and never blocks the engines: every field read is an
// observation of already-computed state.
func (s *Service) BuildSnapshot() *Snapshot { return s.buildSnapshot(nil) }

// buildSnapshot shows fin's job in the terminal state fin is about to publish.
func (s *Service) buildSnapshot(fin *journalRecord) *Snapshot {
	t0 := time.Now()
	snap := &Snapshot{
		Version: SnapshotVersion,
		TakenAt: t0,
		Daemon: SnapshotDaemon{
			Workers:        s.cfg.Workers,
			QueueCapacity:  s.cfg.QueueDepth,
			DefaultScale:   s.cfg.DefaultScale,
			Integrator:     s.cfg.Engine.Integrator,
			Durable:        s.cfg.DataDir != "",
			ClusterWorkers: append([]string(nil), s.cfg.Cluster.Workers...),
		},
		QueueDepth:    s.QueueDepth(),
		Heat:          s.heat.snapshot(),
		FlightRecords: s.rec.Len(),
	}
	if cs := s.ClusterStatus(); cs.Enabled {
		snap.Cluster = &cs
	}
	if s.store != nil {
		js := s.store.log.Stats()
		snap.Journal = &js
	}

	for _, j := range s.Jobs() {
		v := j.View()
		if fin != nil && fin.ID == j.ID {
			v.State, v.Error, v.FinishedAt = fin.Op, fin.Error, &fin.At
		}
		js := JobSnapshot{
			ID: j.ID, Key: j.Key, Kind: j.kind, Name: j.name,
			Policy: j.policy, Scale: j.scale,
			State: v.State, Degraded: v.Degraded, CacheHit: v.CacheHit,
			Recovered: j.recovered, Error: v.Error,
			MachineStates: j.statesSnapshot(),
			SubmittedAt:   v.SubmittedAt,
		}
		if v.StartedAt != nil {
			js.StartedAt = *v.StartedAt
		}
		if v.FinishedAt != nil {
			js.FinishedAt = *v.FinishedAt
		}
		if j.res != nil && j.res.spec != nil {
			if raw, err := j.res.spec.Canonical(); err == nil {
				js.Spec = raw
			}
		}
		js.Checkpoint = j.resumeToken()
		snap.Jobs = append(snap.Jobs, js)
	}

	snap.Hash = snap.hashCore()
	s.met.snapshots.Add(1)
	s.met.snapshotSeconds.Observe(time.Since(t0).Seconds())
	s.rec.Record("snapshot", "", snap.Hash[:12], float64(len(snap.Jobs)))
	return snap
}

// hashCore computes the canonical content hash: the snapshot re-marshals
// with every volatile field zeroed (capture time, per-job wall-clock stamps,
// the heat frame's timestamps, live cluster health, the recorder fill, the
// journal write totals), so the hash names the logical fleet state alone.
func (s *Snapshot) hashCore() string {
	core := *s
	core.TakenAt = time.Time{}
	core.Hash = ""
	core.Heat = HeatFrame{}
	core.Cluster = nil
	core.FlightRecords = 0
	core.Journal = nil
	core.Jobs = append([]JobSnapshot(nil), s.Jobs...)
	for i := range core.Jobs {
		core.Jobs[i].SubmittedAt = time.Time{}
		core.Jobs[i].StartedAt = time.Time{}
		core.Jobs[i].FinishedAt = time.Time{}
	}
	raw, err := json.Marshal(core)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func (s *Service) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.BuildSnapshot())
}
