package machine

import (
	"fmt"

	"repro/internal/digest"
	"repro/internal/thermal"
	"repro/internal/units"
)

// State is a machine's serializable simulation snapshot: everything the
// engines' determinism contract says must match bit-for-bit when the same
// trial is replayed to the same barrier. It deliberately captures state from
// every layer — the thermal network's node temperatures, the RNG stream
// words, the scheduler's queues and occupancy ledgers, the leap integrator's
// epoch seam — so a digest over it is a whole-machine identity check, not a
// summary statistic.
//
// Restore-by-verified-replay: discrete-event state (armed timers, workload
// program closures) is not re-seated from a State — it is reproduced by
// deterministically replaying the trial to the checkpoint barrier, and State
// is the proof obligation that the replay arrived at the identical machine.
// Capture is a pure observation (see Checkpoint), so it may happen at any
// deterministically chosen instant; the engines choose round barriers, where
// the replayed run provably revisits the same capture point (see DESIGN.md
// §12).
type State struct {
	// Now is the virtual time of the capture, in clock ticks.
	Now units.Time `json:"now"`
	// ChipEpoch is the chip power-model epoch counter — it advances on
	// every C-state/DVFS/activity change, so equal epochs mean the replay
	// performed the identical sequence of power-model mutations.
	ChipEpoch uint64 `json:"chip_epoch"`
	// EventsFired counts clock events fired since t=0.
	EventsFired uint64 `json:"events_fired"`

	// NodeTempsC are the thermal network's node temperatures (every node,
	// in construction order — junctions, hotspots, package, sink, ambient).
	NodeTempsC []float64 `json:"node_temps_c"`
	// TempIntegralCs are the exact per-core junction-temperature integrals
	// (°C·s since t=0).
	TempIntegralCs []float64 `json:"temp_integral_cs"`

	// EnergyJ and EnergySpan are the package energy accumulator.
	EnergyJ    float64    `json:"energy_j"`
	EnergySpan units.Time `json:"energy_span"`

	// RNG is the machine's root generator state.
	RNG [4]uint64 `json:"rng"`

	// Scheduler state: cumulative occupancy per core, global counters and
	// the live thread ledger.
	CoreBusy     []units.Time  `json:"core_busy"`
	CoreInjected []units.Time  `json:"core_injected"`
	Injections   int           `json:"injections"`
	Steals       int           `json:"steals"`
	QueueLen     int           `json:"queue_len"`
	Threads      []ThreadState `json:"threads"`
}

// ThreadState is one thread's checkpoint ledger entry.
type ThreadState struct {
	ID        int        `json:"id"`
	Name      string     `json:"name"`
	ProcessID int        `json:"pid"`
	State     string     `json:"state"`
	WorkDone  float64    `json:"work_done"`
	Remaining float64    `json:"remaining"`
	CPUTime   units.Time `json:"cpu_time"`
}

// Checkpoint captures the machine's state as a pure observation: it performs
// no accounting flush of its own, reading every ledger exactly as the
// simulation left it. That is deliberate — a flush here would not be free
// (ChargeAll consumes a freshly dispatched thread's pending context-switch
// pad, and an extra thermal settle re-seams the leap window), and a
// checkpointed run must be byte-identical to an unobserved one. Values are
// therefore "as of the last natural flush", which a deterministic replay
// reproduces exactly; for fully charged occupancy numbers read Telemetry at
// a barrier first, as the fleet engine does.
func (m *Machine) Checkpoint() State {
	var st State
	m.CheckpointInto(&st)
	return st
}

// CheckpointInto is Checkpoint refilling st in place: it reuses st's slices
// where they are large enough, so a caller that checkpoints the same machine
// at every barrier allocates its state once. The result equals Checkpoint's.
func (m *Machine) CheckpointInto(st *State) {
	st.Now = m.Now()
	st.ChipEpoch = m.Chip.TotalEpoch()
	st.EventsFired = m.Clock.Fired()
	st.EnergyJ = float64(m.Energy.Energy())
	st.EnergySpan = m.Energy.Span()
	st.RNG = m.RNG.State()
	st.Injections = m.Sched.TotalInjections
	st.Steals = m.Sched.Steals
	st.QueueLen = m.Sched.QueueLen()

	net := m.Net.Net
	st.NodeTempsC = refill(st.NodeTempsC, net.NumNodes())
	for i := range st.NodeTempsC {
		st.NodeTempsC[i] = float64(net.Temp(thermal.NodeID(i)))
	}
	st.TempIntegralCs = append(st.TempIntegralCs[:0], m.tempIntegral...)
	cores := m.cfg.Model.NumCores * m.cfg.SMTContexts
	st.CoreBusy = refill(st.CoreBusy, cores)
	st.CoreInjected = refill(st.CoreInjected, cores)
	for c := 0; c < cores; c++ {
		st.CoreBusy[c], st.CoreInjected[c] = m.Sched.Core(c)
	}
	st.Threads = st.Threads[:0]
	for _, th := range m.Sched.Threads() {
		st.Threads = append(st.Threads, ThreadState{
			ID:        th.ID,
			Name:      th.Name,
			ProcessID: th.ProcessID,
			State:     th.State().String(),
			WorkDone:  th.WorkDone,
			Remaining: th.Remaining(),
			CPUTime:   th.CPUTime,
		})
	}
}

// refill returns s resized to n, reusing its backing array when it is large
// enough.
func refill[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Digest returns the state's content hash: sha256 over its fixed binary
// encoding (package digest) — every field in declaration order, integers and
// float64 bit patterns as 8 little-endian bytes, a length before every slice
// and string. Equal states digest equally and unequal states, down to a
// single RNG word or one ulp of one temperature, do not. The hex form keeps
// a persisted checkpoint's digest a 64-character string.
func (s State) Digest() string {
	e := digest.New(128 + 8*(len(s.NodeTempsC)+len(s.TempIntegralCs)+2*len(s.CoreBusy)) + 80*len(s.Threads))
	e.Int(int64(s.Now))
	e.Uint64(s.ChipEpoch)
	e.Uint64(s.EventsFired)
	e.Float64s(s.NodeTempsC)
	e.Float64s(s.TempIntegralCs)
	e.Float64(s.EnergyJ)
	e.Int(int64(s.EnergySpan))
	for _, w := range s.RNG {
		e.Uint64(w)
	}
	for _, ts := range [][]units.Time{s.CoreBusy, s.CoreInjected} {
		e.Int(int64(len(ts)))
		for _, t := range ts {
			e.Int(int64(t))
		}
	}
	e.Int(int64(s.Injections))
	e.Int(int64(s.Steals))
	e.Int(int64(s.QueueLen))
	e.Int(int64(len(s.Threads)))
	for _, th := range s.Threads {
		e.Int(int64(th.ID))
		e.String(th.Name)
		e.Int(int64(th.ProcessID))
		e.String(th.State)
		e.Float64(th.WorkDone)
		e.Float64(th.Remaining)
		e.Int(int64(th.CPUTime))
	}
	return e.Hex()
}

// Restore verifies that this machine — deterministically replayed to the
// checkpoint's barrier — matches the captured state exactly, and returns a
// descriptive error naming the first diverging field otherwise. On match the
// machine simply continues: its discrete-event state (timers, programs) was
// rebuilt by the replay and its continuous state is bit-identical, so there
// is nothing to seat. This is the zero-divergence guarantee behind crash
// recovery: a resumed run is indistinguishable from an uninterrupted one.
func (m *Machine) Restore(want State) error {
	got := m.Checkpoint()
	if got.Now != want.Now {
		return fmt.Errorf("machine: restore divergence: now %v != checkpoint %v", got.Now, want.Now)
	}
	if gd, wd := got.Digest(), want.Digest(); gd != wd {
		return fmt.Errorf("machine: restore divergence at t=%v: %s", got.Now, diffState(got, want))
	}
	return nil
}

// diffState names the first differing field between two states, for restore
// error messages a human can act on.
func diffState(got, want State) string {
	switch {
	case got.ChipEpoch != want.ChipEpoch:
		return fmt.Sprintf("chip epoch %d != %d", got.ChipEpoch, want.ChipEpoch)
	case got.EventsFired != want.EventsFired:
		return fmt.Sprintf("events fired %d != %d", got.EventsFired, want.EventsFired)
	case got.RNG != want.RNG:
		return fmt.Sprintf("rng state %x != %x", got.RNG, want.RNG)
	case got.EnergyJ != want.EnergyJ:
		return fmt.Sprintf("energy %v J != %v J", got.EnergyJ, want.EnergyJ)
	case got.Injections != want.Injections:
		return fmt.Sprintf("injections %d != %d", got.Injections, want.Injections)
	case got.QueueLen != want.QueueLen:
		return fmt.Sprintf("queue length %d != %d", got.QueueLen, want.QueueLen)
	case len(got.Threads) != len(want.Threads):
		return fmt.Sprintf("thread count %d != %d", len(got.Threads), len(want.Threads))
	case len(got.NodeTempsC) != len(want.NodeTempsC):
		return fmt.Sprintf("node count %d != %d", len(got.NodeTempsC), len(want.NodeTempsC))
	}
	for i := range got.NodeTempsC {
		if got.NodeTempsC[i] != want.NodeTempsC[i] {
			return fmt.Sprintf("node %d temp %v != %v", i, got.NodeTempsC[i], want.NodeTempsC[i])
		}
	}
	for i := range got.Threads {
		if got.Threads[i] != want.Threads[i] {
			return fmt.Sprintf("thread %d %+v != %+v", i, got.Threads[i], want.Threads[i])
		}
	}
	return "digest mismatch (core occupancy or temperature integrals)"
}
