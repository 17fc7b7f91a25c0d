package service

import (
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The live fleet heat-map: per-job, per-machine peak junction temperatures,
// a fold over the job's stream events — scenario telemetry samples and
// machine completions, fleetsched round barriers. Observability only: the
// heat map reads values the metric-loop already computed for the stream,
// never the thermal state itself, so serving it perturbs nothing.
//
// Memory is bounded two ways: machine indices fold into at most heatMaxCells
// cells per job (index mod cells — aliased for fleets past the bound, but a
// hotspot still lights its cell), and a job's cells are dropped when it goes
// terminal.

// heatMaxCells bounds one job's heat cells.
const heatMaxCells = 512

// heatState holds the live per-job heat maps. The zero value is ready.
type heatState struct {
	mu   sync.Mutex
	jobs map[string]*jobHeat
	// rec, when non-nil, receives a throttled "heat" record per job — the
	// flight recorder's heat-frame feed. Throttling is by observation count
	// (every heatRecordEvery-th), deterministic per observation sequence.
	rec *obs.FlightRecorder
}

type jobHeat struct {
	machines int // highest machine index seen + 1 (fleet size lower bound)
	cells    []float64
	hot      []int // machine index currently owning each cell's peak
	virtualS float64
	round    int
	observes int // observations folded in, for the recorder throttle
	updated  time.Time
}

// heatRecordEvery throttles heat-frame flight records: one per this many
// observations per job.
const heatRecordEvery = 64

// HeatFrame is one snapshot of every live job's heat map — the document the
// SSE endpoint streams and `dimctl top` renders.
type HeatFrame struct {
	At   time.Time     `json:"at"`
	Jobs []JobHeatView `json:"jobs"`
}

// JobHeatView is one job's heat map. Cells holds peak junction temperatures
// (°C); machines past Cells' length fold in modulo, so len(Cells) ==
// min(Machines, 512).
type JobHeatView struct {
	Job      string    `json:"job"`
	Machines int       `json:"machines"`
	Cells    []float64 `json:"cells"`
	// MaxC/MeanC summarise the cells; HottestMachine is the fleet index
	// owning the hottest cell.
	MaxC           float64 `json:"max_c"`
	MeanC          float64 `json:"mean_c"`
	HottestMachine int     `json:"hottest_machine"`
	// VirtualS is the sim-time high-water mark; Round the last scheduler
	// round (scheduled jobs only).
	VirtualS float64   `json:"virtual_s"`
	Round    int       `json:"round,omitempty"`
	Updated  time.Time `json:"updated"`
}

func (h *heatState) job(id string) *jobHeat {
	if h.jobs == nil {
		h.jobs = map[string]*jobHeat{}
	}
	jh, ok := h.jobs[id]
	if !ok {
		jh = &jobHeat{}
		h.jobs[id] = jh
	}
	return jh
}

func (jh *jobHeat) observe(index int, peakC, virtualS float64) {
	if index < 0 {
		return
	}
	if index+1 > jh.machines {
		jh.machines = index + 1
	}
	n := jh.machines
	if n > heatMaxCells {
		n = heatMaxCells
	}
	for len(jh.cells) < n {
		jh.cells = append(jh.cells, 0)
		jh.hot = append(jh.hot, -1)
	}
	cell := index % len(jh.cells)
	if peakC > jh.cells[cell] {
		jh.cells[cell] = peakC
		jh.hot[cell] = index
	}
	if virtualS > jh.virtualS {
		jh.virtualS = virtualS
	}
	jh.updated = time.Now()
}

// record taps the flight recorder on every heatRecordEvery-th observation of
// a job. Caller holds h.mu; jh.observes was already incremented.
func (h *heatState) record(jobID string, jh *jobHeat, peakC float64) {
	if h.rec == nil {
		return
	}
	if jh.observes%heatRecordEvery == 1 {
		h.rec.Record("heat", jobID, "frame", peakC)
	}
}

// fold applies one job event to the map under key. A "telemetry" sample or a
// "machine" completion lights its machine's cell; a scheduler "round" lights
// its hottest machine's, so a scheduled job's map fills in as the hotspot
// moves. A terminal "done" or "error" event drops the row.
func (h *heatState) fold(key string, e Event) {
	var (
		index           int
		peakC, virtualS float64
	)
	h.mu.Lock()
	defer h.mu.Unlock()
	switch e.Type {
	case "telemetry", "machine":
		index, peakC, virtualS = e.Machine.Index, e.Machine.PeakJunctionC, e.Machine.NowS
	case "round":
		index, peakC, virtualS = e.Round.HottestMachine, e.Round.MaxJunctionC, e.Round.NowS
	case "done", "error":
		delete(h.jobs, key)
		return
	default:
		return
	}
	jh := h.job(key)
	jh.observes++
	jh.observe(index, peakC, virtualS)
	if e.Round != nil {
		jh.round = e.Round.Round
	}
	h.record(key, jh, peakC)
}

// snapshot renders the current frame. Jobs sort by ID so frames are stable.
func (h *heatState) snapshot() HeatFrame {
	h.mu.Lock()
	defer h.mu.Unlock()
	frame := HeatFrame{At: time.Now()}
	for id, jh := range h.jobs {
		if len(jh.cells) == 0 {
			continue
		}
		v := JobHeatView{
			Job: id, Machines: jh.machines,
			Cells:    append([]float64(nil), jh.cells...),
			VirtualS: jh.virtualS, Round: jh.round, Updated: jh.updated,
		}
		var sum float64
		for i, c := range jh.cells {
			sum += c
			if c > v.MaxC {
				v.MaxC = c
				v.HottestMachine = jh.hot[i]
			}
		}
		v.MeanC = sum / float64(len(jh.cells))
		frame.Jobs = append(frame.Jobs, v)
	}
	sortJobHeat(frame.Jobs)
	return frame
}

func sortJobHeat(jobs []JobHeatView) {
	for i := 1; i < len(jobs); i++ {
		for k := i; k > 0 && jobs[k].Job < jobs[k-1].Job; k-- {
			jobs[k], jobs[k-1] = jobs[k-1], jobs[k]
		}
	}
}

// mergeHeatFrames folds worker frames into a coordinator's local frame so
// `dimctl top` on a coordinator shows the whole sharded fleet. Worker rows
// are keyed "<job>/s<shard>" (see handleShardRun); the shard suffix strips so
// every shard of a job folds into one row, cell-wise max with the modulo
// aliasing the heat map already uses. Rows that match no local job pass
// through under their stripped name — a coordinator restarted mid-run still
// shows its workers' in-flight heat.
func mergeHeatFrames(local HeatFrame, remotes ...HeatFrame) HeatFrame {
	rows := map[string]*JobHeatView{}
	order := []string{}
	fold := func(v JobHeatView, key string) {
		dst, ok := rows[key]
		if !ok {
			cp := v
			cp.Job = key
			cp.Cells = append([]float64(nil), v.Cells...)
			rows[key] = &cp
			order = append(order, key)
			return
		}
		if v.Machines > dst.Machines {
			dst.Machines = v.Machines
		}
		for len(dst.Cells) < len(v.Cells) && len(dst.Cells) < heatMaxCells {
			dst.Cells = append(dst.Cells, 0)
		}
		for i, c := range v.Cells {
			cell := i % len(dst.Cells)
			if c > dst.Cells[cell] {
				dst.Cells[cell] = c
			}
		}
		if v.VirtualS > dst.VirtualS {
			dst.VirtualS = v.VirtualS
		}
		if v.Round > dst.Round {
			dst.Round = v.Round
		}
		if v.Updated.After(dst.Updated) {
			dst.Updated = v.Updated
		}
	}
	for _, v := range local.Jobs {
		fold(v, v.Job)
	}
	for _, rf := range remotes {
		for _, v := range rf.Jobs {
			key := v.Job
			if i := strings.LastIndex(key, "/s"); i > 0 {
				key = key[:i]
			}
			fold(v, key)
		}
	}
	out := HeatFrame{At: local.At, Jobs: make([]JobHeatView, 0, len(order))}
	for _, key := range order {
		v := rows[key]
		v.MaxC, v.MeanC, v.HottestMachine = 0, 0, 0
		var sum float64
		for i, c := range v.Cells {
			sum += c
			if c > v.MaxC {
				v.MaxC = c
				v.HottestMachine = i
			}
		}
		if len(v.Cells) > 0 {
			v.MeanC = sum / float64(len(v.Cells))
		}
		out.Jobs = append(out.Jobs, *v)
	}
	sortJobHeat(out.Jobs)
	return out
}
