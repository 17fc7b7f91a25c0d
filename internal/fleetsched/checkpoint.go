package fleetsched

import (
	"fmt"

	"repro/internal/digest"
	"repro/internal/runner"
	"repro/internal/units"
)

// Checkpoint is a scheduled run's resume token, captured at a round barrier —
// the only point where cross-machine state is quiescent (telemetry flushed,
// migrations and placements applied, no worker owns a node).
//
// It deliberately does not serialize the fleet: armed timers and workload
// program closures cannot be re-seated from bytes. Instead it records *where*
// the run was (round, cursor into the pregenerated arrival stream, dispatch
// and migration counters) plus a Digest that fingerprints the complete fleet
// state at that barrier. Resume is verified deterministic replay: the engine
// re-runs the trial from t=0 with observers suppressed, arrives at the same
// barrier, recomputes the digest, and refuses to continue on any mismatch.
// The replayed prefix costs CPU but is provably bit-identical — which is the
// whole point: a resumed run is indistinguishable from an uninterrupted one,
// and the digest check turns that claim into an enforced invariant rather
// than a hope (see DESIGN.md §12).
type Checkpoint struct {
	// Round is the barrier index the checkpoint was captured at (the value
	// OnRound saw at the same barrier).
	Round int `json:"round"`
	// NowS is the barrier's virtual time in seconds.
	NowS float64 `json:"now_s"`
	// Cursor is how far the dispatcher had consumed the pregenerated job
	// arrival stream; Dispatched and Migrations are the cumulative counters.
	Cursor     int `json:"cursor"`
	Dispatched int `json:"dispatched"`
	Migrations int `json:"migrations"`
	// Digest fingerprints the entire fleet at the barrier: every machine's
	// full simulation state plus the engine's per-node ledgers and job
	// tracking. See fleetDigest.
	Digest string `json:"digest"`
}

// machineDigests returns every node's machine.State digest, computed on the
// run's workers into each node's reused state. It is called at a round
// barrier, where no machine advances, and each worker touches only the nodes
// it claims, so the fan-out is race-free and its result is the same at any
// jobs.
func machineDigests(jobs int, nodes []*node) []string {
	return runner.Map(jobs, nodes, func(_ int, n *node) string {
		n.m.CheckpointInto(&n.state)
		return n.state.Digest()
	})
}

// fleetDigest fingerprints the whole run at a round barrier. Its preimage is
// the binary encoding of package digest: the dispatcher's global counters,
// then per node the machine's full state digest (thermal nodes, RNG words,
// scheduler ledgers, energy accumulator — see machine.State, precomputed by
// machineDigests), the engine's violation accounting and placement signals,
// and its job ledger. Thread-level job progress (WorkDone, CPU time, run
// state) is already inside the machine digest; the ledger adds the engine's
// own tracking — identity, placement, migration history and the per-thread
// assignments remaining work is measured against.
//
// Capturing machine state here is perturbation-free: machine.Checkpoint is a
// pure observation, and the barrier has already flushed each machine's lazy
// thermal window and scheduler accounting via Telemetry.
func fleetDigest(roundNo int, now units.Time, nodes []*node, machines []string, cursor, dispatched, migrations int) string {
	e := digest.New(64 + len(nodes)*256)
	e.Int(int64(roundNo))
	e.Int(int64(now))
	e.Int(int64(cursor))
	e.Int(int64(dispatched))
	e.Int(int64(migrations))
	e.Int(int64(len(nodes)))
	for i, n := range nodes {
		e.String(machines[i])
		e.Bool(n.measuring)
		e.Bool(n.over)
		e.Float64(n.peak)
		e.Float64(n.violationS)
		e.Int(int64(n.violations))
		e.Float64(n.ewma)
		e.Float64(n.injFrac)
		e.Float64(n.pendingWorkS)
		e.Int(int64(n.placed))
		e.Int(int64(n.completed))
		e.Int(int64(n.migratedIn))
		e.Int(int64(n.migratedOut))
		e.Int(int64(len(n.jobs)))
		for _, j := range n.jobs {
			e.Int(int64(j.ID))
			e.Int(int64(j.Machine))
			e.Int(int64(j.Migrations))
			e.Bool(j.done)
			e.Int(int64(j.DoneAt))
			e.Int(int64(j.DispatchAt))
			e.Float64s(j.assigned)
		}
	}
	return e.Hex()
}

// verifyResume checks a replayed fleet against the checkpoint it is resuming
// from, returning a descriptive error on the first divergence. The digest
// comparison is the real gate; the named-field checks in front of it exist so
// an operator sees "cursor 14 != 17", not just two hashes.
func verifyResume(cp *Checkpoint, jobs, roundNo int, now units.Time, nodes []*node, cursor, dispatched, migrations int) error {
	switch {
	case cursor != cp.Cursor:
		return fmt.Errorf("resume divergence at round %d: arrival cursor %d != checkpoint %d", roundNo, cursor, cp.Cursor)
	case dispatched != cp.Dispatched:
		return fmt.Errorf("resume divergence at round %d: dispatched %d != checkpoint %d", roundNo, dispatched, cp.Dispatched)
	case migrations != cp.Migrations:
		return fmt.Errorf("resume divergence at round %d: migrations %d != checkpoint %d", roundNo, migrations, cp.Migrations)
	}
	if got := fleetDigest(roundNo, now, nodes, machineDigests(jobs, nodes), cursor, dispatched, migrations); got != cp.Digest {
		return fmt.Errorf("resume divergence at round %d (t=%.3fs): fleet digest %s != checkpoint %s", roundNo, now.Seconds(), shortHash(got), shortHash(cp.Digest))
	}
	return nil
}

// shortHash abbreviates a digest for error messages, tolerating a corrupt
// checkpoint whose digest field is not even hash-shaped.
func shortHash(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	if s == "" {
		return "(empty)"
	}
	return s
}
