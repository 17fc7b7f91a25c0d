package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/export"
	"repro/internal/wal"
)

// store is dimd's durable state under -data-dir:
//
//	journal.wal          append-only job journal (see journalRecord)
//	artifacts/<key>.json completed artifacts, content-addressed by work key
//	checkpoints/<id>.wal in-flight jobs' resume logs, keyed by job ID
//
// The journal is the source of truth for *what* was asked and *whether* it
// finished; artifacts hold the (re-creatable) outputs; resume logs hold the
// (re-creatable) resume tokens (see JobCheckpoint). Recovery therefore never
// trusts an artifact or resume log the journal does not vouch for, and losing
// either merely costs recomputation, never correctness.
//
// Write ordering is the crash-safety invariant: an artifact file is fully
// durable (written to a temp file, fsynced, atomically renamed) before the
// "done" record that references it is appended and fsynced. A crash between
// the two leaves an orphaned artifact and an incomplete journal entry — the
// job replays as in-flight and re-derives the identical bytes. The reverse
// order could acknowledge a result that no longer exists.
type store struct {
	dir string
	log *wal.Log
}

// journalRecord is one journal entry. "submitted" carries the full request
// (enough to re-resolve and re-run the job after a crash); the rest are state
// transitions referencing the job ID.
type journalRecord struct {
	// Op is submitted | started | done | failed | canceled.
	Op string    `json:"op"`
	ID string    `json:"id"`
	At time.Time `json:"at"`

	// Submission fields (op "submitted"). Name/Policy/Scale/Spec are the
	// client's request verbatim — recovery re-resolves from them and checks
	// the recomputed content key against Key. JobName is the resolved
	// display name (an inline spec's scenario name), kept separately so the
	// raw request stays reconstructible.
	Key      string          `json:"key,omitempty"`
	Kind     string          `json:"kind,omitempty"`
	Name     string          `json:"name,omitempty"`
	JobName  string          `json:"job_name,omitempty"`
	Policy   string          `json:"policy,omitempty"`
	Scale    float64         `json:"scale,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	CacheHit bool            `json:"cache_hit,omitempty"`

	// Error carries the failure reason (op "failed"/"canceled").
	Error string `json:"error,omitempty"`

	// Degraded marks a "done" record whose clustered run fell back to local
	// execution for one or more shards, so a restarted daemon restores the
	// job's degraded flag along with its artifact.
	Degraded bool `json:"degraded,omitempty"`
}

// storeReplay is what openStore recovered from the data directory.
type storeReplay struct {
	records []journalRecord
	stats   wal.ReplayStats
	// skipped counts CRC-valid records that failed JSON decoding — possible
	// only via external tampering, and skipped rather than fatal: recovery
	// must never be the thing that keeps the daemon down.
	skipped int
}

// openStore opens (creating if needed) the data directory and replays the
// journal. A torn journal tail is truncated, a corrupt record ends replay at
// that point; neither is an error.
func openStore(dir string) (*store, storeReplay, error) {
	var rep storeReplay
	for _, sub := range []string{"", "artifacts", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, rep, fmt.Errorf("service: creating data dir: %w", err)
		}
	}
	log, stats, err := wal.Open(filepath.Join(dir, "journal.wal"), func(payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			rep.skipped++
			return nil
		}
		rep.records = append(rep.records, rec)
		return nil
	})
	if err != nil {
		return nil, rep, fmt.Errorf("service: opening journal: %w", err)
	}
	rep.stats = stats
	return &store{dir: dir, log: log}, rep, nil
}

// append journals one record. Durability is the caller's choice: pass
// sync=true when the record acknowledges something to a client (a submission
// accepted, a result completed), false for purely informational transitions
// ("started") that recovery does not depend on. Concurrent synced appends
// group-commit naturally: records land in the file under the log's lock, and
// one fsync covers every record appended before it (wal.Sync no-ops when
// another caller's fsync already made the log clean).
func (st *store) append(rec journalRecord, sync bool) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: marshaling journal record: %w", err)
	}
	if err := st.log.Append(raw); err != nil {
		return err
	}
	if !sync {
		return nil
	}
	return st.log.Sync()
}

func (st *store) artifactPath(key string) string {
	return filepath.Join(st.dir, "artifacts", key+".json")
}

// persistedArtifact is Artifact's on-disk form. Strings and float64s
// round-trip JSON exactly, so a loaded artifact is byte-identical to the one
// the engine produced.
type persistedArtifact struct {
	Rendered   string          `json:"rendered"`
	Files      []persistedFile `json:"files,omitempty"`
	SimSeconds float64         `json:"sim_seconds,omitempty"`
}

type persistedFile struct {
	Name    string `json:"name"`
	Content string `json:"content"`
}

// writeArtifact durably stores a completed artifact under its work key.
func (st *store) writeArtifact(key string, art *Artifact) error {
	p := persistedArtifact{Rendered: art.Rendered, SimSeconds: art.SimSeconds}
	for _, f := range art.Files {
		p.Files = append(p.Files, persistedFile{Name: f.Name, Content: f.Content})
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("service: marshaling artifact: %w", err)
	}
	return atomicWrite(st.artifactPath(key), raw)
}

// loadArtifact reads a stored artifact back; ok is false when absent or
// unreadable (recovery treats that as "recompute", never as fatal).
func (st *store) loadArtifact(key string) (*Artifact, bool) {
	raw, err := os.ReadFile(st.artifactPath(key))
	if err != nil {
		return nil, false
	}
	var p persistedArtifact
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, false
	}
	art := &Artifact{Rendered: p.Rendered, SimSeconds: p.SimSeconds}
	for _, f := range p.Files {
		art.Files = append(art.Files, export.File{Name: f.Name, Content: f.Content})
	}
	return art, true
}

func (st *store) close() error {
	return st.log.Close()
}

// atomicWrite lands data at path via temp file + fsync + rename, so readers
// (including recovery after a mid-write crash) observe either the old
// complete file or the new complete file, never a torn hybrid.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
