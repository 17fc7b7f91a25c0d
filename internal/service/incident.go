package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// SLOConfig arms the daemon's burn-rate evaluators. A threshold of zero
// disables that rule; with both rules disabled no SLO evaluation runs (the
// panic and degrade dump triggers stay active regardless).
type SLOConfig struct {
	// QueueWaitS breaches when too many jobs wait longer than this many
	// seconds in the admission queue.
	QueueWaitS float64
	// ViolationS breaches when too many fleet machines accumulate more than
	// this many seconds of thermal-violation time over their measurement
	// window — the Dimetrodon failure mode itself.
	ViolationS float64
	// Budget is the tolerated bad fraction per evaluation window.
	// Default: 0.1.
	Budget float64
	// MinEvents gates evaluation until a window has at least this many new
	// observations. Default: 8.
	MinEvents int
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Budget <= 0 {
		c.Budget = 0.1
	}
	if c.MinEvents <= 0 {
		c.MinEvents = 8
	}
	return c
}

// initSLO builds the burn-rate rules from config. Runs once in Open, after
// the metrics registry exists.
func (s *Service) initSLO() {
	slo := s.cfg.SLO
	if slo.QueueWaitS > 0 {
		s.slo = append(s.slo, &obs.BurnRate{
			Name: "queue-wait", H: s.met.queueWait,
			Threshold: slo.QueueWaitS, Budget: slo.Budget, MinEvents: int64(slo.MinEvents),
		})
	}
	if slo.ViolationS > 0 {
		s.slo = append(s.slo, &obs.BurnRate{
			Name: "violation", H: s.met.fleetViolation,
			Threshold: slo.ViolationS, Budget: slo.Budget, MinEvents: int64(slo.MinEvents),
		})
	}
}

// checkSLO re-evaluates every armed burn-rate rule as fin's job finishes; a
// breach transition dumps an incident. The faultinject point lets the
// chaos/CI suites force a "violation storm" breach without out-heating the
// thermal model.
func (s *Service) checkSLO(fin *journalRecord) {
	if faultinject.Hit(faultinject.SLOBreach) {
		s.met.sloBreaches.Add(1)
		s.dumpIncident("slo:forced", fin.ID, "injected SLO breach (faultinject slo.breach)", fin)
		return
	}
	for _, rule := range s.slo {
		fire, rate, events := rule.Check()
		if !fire {
			continue
		}
		s.met.sloBreaches.Add(1)
		s.dumpIncident("slo:"+rule.Name, fin.ID,
			fmt.Sprintf("burn rate %.3f over %d events exceeds budget %.3f (threshold %gs)",
				rate, events, rule.Budget, rule.Threshold), fin)
	}
}

// Incident is one flight-recorder dump: the ring's recent records plus a
// full fleet snapshot, captured at the moment something went wrong.
type Incident struct {
	ID string    `json:"id"`
	At time.Time `json:"at"`
	// Reason is the dump trigger: "panic", "degraded", "slo:<rule>".
	Reason string `json:"reason"`
	// Job names the job the trigger fired on, when job-scoped.
	Job    string `json:"job,omitempty"`
	Detail string `json:"detail,omitempty"`

	Records  []obs.FlightRecord `json:"records,omitempty"`
	Snapshot *Snapshot          `json:"snapshot,omitempty"`
}

// IncidentSummary is the list-endpoint row.
type IncidentSummary struct {
	ID           string    `json:"id"`
	At           time.Time `json:"at"`
	Reason       string    `json:"reason"`
	Job          string    `json:"job,omitempty"`
	Detail       string    `json:"detail,omitempty"`
	Records      int       `json:"records"`
	SnapshotHash string    `json:"snapshot_hash,omitempty"`
}

// incidentLog retains recent incidents in memory (bounded) and, on durable
// daemons, mirrors each dump to <data-dir>/incidents/<id>.json so incidents
// survive the restart that often follows them.
type incidentLog struct {
	mu   sync.Mutex
	max  int
	seq  int
	list []*Incident
	dir  string // empty: in-memory only
}

func newIncidentLog(max int) *incidentLog {
	if max < 1 {
		max = 1
	}
	return &incidentLog{max: max}
}

// open points the log at its durable directory and loads surviving dumps.
// Runs once during Open, single-threaded.
func (il *incidentLog) open(dir string) {
	il.dir = dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // no incidents yet (or no directory) — nothing to load
	}
	names := []string{}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var inc Incident
		if json.Unmarshal(raw, &inc) != nil || inc.ID == "" {
			continue
		}
		il.list = append(il.list, &inc)
		var n int
		if _, err := fmt.Sscanf(inc.ID, "inc-%d", &n); err == nil && n > il.seq {
			il.seq = n
		}
	}
	if over := len(il.list) - il.max; over > 0 {
		il.list = il.list[over:]
	}
}

// add assigns the incident its ID, retains it, and persists it when the log
// is durable. Returns the assigned ID.
func (il *incidentLog) add(inc *Incident) string {
	il.mu.Lock()
	il.seq++
	inc.ID = fmt.Sprintf("inc-%06d", il.seq)
	il.list = append(il.list, inc)
	if len(il.list) > il.max {
		il.list = il.list[len(il.list)-il.max:]
	}
	dir := il.dir
	il.mu.Unlock()

	if dir != "" {
		if raw, err := json.Marshal(inc); err == nil {
			if os.MkdirAll(dir, 0o755) == nil {
				_ = atomicWrite(filepath.Join(dir, inc.ID+".json"), raw)
			}
		}
	}
	return inc.ID
}

func (il *incidentLog) summaries() []IncidentSummary {
	il.mu.Lock()
	defer il.mu.Unlock()
	out := make([]IncidentSummary, 0, len(il.list))
	for _, inc := range il.list {
		sum := IncidentSummary{
			ID: inc.ID, At: inc.At, Reason: inc.Reason, Job: inc.Job,
			Detail: inc.Detail, Records: len(inc.Records),
		}
		if inc.Snapshot != nil {
			sum.SnapshotHash = inc.Snapshot.Hash
		}
		out = append(out, sum)
	}
	return out
}

func (il *incidentLog) get(id string) (*Incident, bool) {
	il.mu.Lock()
	defer il.mu.Unlock()
	for _, inc := range il.list {
		if inc.ID == id {
			return inc, true
		}
	}
	return nil, false
}

// dumpIncident captures the flight recorder and a fleet snapshot under the
// given reason. It is the auto-dump behind worker panics, degrade-to-local
// and SLO breaches; fin is a finishing job's unpublished terminal record, or
// nil. Callers must not hold s.mu (the snapshot takes it).
func (s *Service) dumpIncident(reason, jobID, detail string, fin *journalRecord) {
	if s.inc == nil {
		return
	}
	inc := &Incident{
		At: time.Now(), Reason: reason, Job: jobID, Detail: detail,
		Records:  s.rec.Snapshot(),
		Snapshot: s.buildSnapshot(fin),
	}
	id := s.inc.add(inc)
	s.met.incidents.Add(1)
	s.rec.Record("incident", jobID, reason, 0)
	s.log.Warn("incident dumped", "incident", id, "reason", reason, "job", jobID, "detail", detail)
}

func (s *Service) handleIncidents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.inc.summaries())
}

func (s *Service) handleIncident(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	inc, ok := s.inc.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no incident %q", id))
		return
	}
	writeJSON(w, http.StatusOK, inc)
}
