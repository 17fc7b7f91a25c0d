// Package faultinject is the adversarial test harness's trigger registry:
// named fault points compiled into durability-critical code paths (WAL
// fsync and append, worker execution) that stay inert in production
// and fire deterministically when armed.
//
// Arming is explicit — the DIMD_FAULTS environment variable (read by
// cmd/dimd via ConfigureFromEnv) or a test's Configure call — and uses a
// hit-count spec so a fault can be aimed at exactly the nth traversal of a
// point:
//
//	DIMD_FAULTS="wal.fsync:3"            fail the 3rd WAL fsync
//	DIMD_FAULTS="wal.partial"            truncate the 1st WAL record write
//	DIMD_FAULTS="worker.panic:2"         panic the 2nd job execution
//
// Multiple points are comma-separated. The fast path is a single atomic
// load when nothing is armed, so instrumented code costs nothing in
// production.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Well-known fault points. Instrumented code references these constants;
// the chaos suite arms them.
const (
	// WALFsync makes the journal's next (or nth) fsync report an error —
	// the disk lying about durability.
	WALFsync = "wal.fsync"
	// WALPartial truncates the next (or nth) WAL record to half its bytes
	// before it reaches the file — a torn write at the journal tail.
	WALPartial = "wal.partial"
	// WorkerPanic panics inside the next (or nth) job execution — a bug in
	// an engine taking down a worker goroutine.
	WorkerPanic = "worker.panic"

	// Network-class fault points for the distributed tier. All three fire on
	// the worker side of a coordinator/worker pair, modelling the failure the
	// coordinator must survive, not cause.

	// ClusterHeartbeatDrop makes a worker answer its next (or nth) health
	// probe with 503 — a dropped heartbeat on an otherwise healthy node.
	ClusterHeartbeatDrop = "cluster.heartbeat.drop"
	// ClusterShardStall freezes a worker's next (or nth) shard stream after
	// the fault fires: results stop flowing and the terminal line never
	// arrives, holding the connection open until the coordinator's lease
	// expires and cancels it — a wedged process behind a live TCP session.
	ClusterShardStall = "cluster.shard.stall"
	// ClusterResultPartial cuts a worker's next (or nth) shard stream short:
	// the connection closes mid-stream without the terminal line — a crash
	// or network partition that truncates the response.
	ClusterResultPartial = "cluster.result.partial"

	// SLOBreach forces the next (or nth) SLO evaluation to report a breach —
	// a violation storm without having to out-heat the thermal model. The
	// incident-replay CI job arms it to deterministically trigger the flight
	// recorder's auto-dump path.
	SLOBreach = "slo.breach"
)

// armed is non-zero while any point is configured; the zero fast path makes
// Hit free in production.
var armed atomic.Int32

var (
	mu     sync.Mutex
	points map[string]*point
)

type point struct {
	// fireAt is the 1-based hit count the fault triggers on; hits counts
	// traversals so far. A triggered point disarms (one shot).
	fireAt int
	hits   int
	fired  bool
}

// Configure arms the given spec, replacing any previous configuration.
// Spec syntax: "point[:n][,point[:n]...]"; empty disarms everything.
func Configure(spec string) error {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	armed.Store(0)
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	pts := map[string]*point{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, nStr, hasN := strings.Cut(part, ":")
		n := 1
		if hasN {
			v, err := strconv.Atoi(nStr)
			if err != nil || v < 1 {
				return fmt.Errorf("faultinject: bad hit count %q in %q", nStr, part)
			}
			n = v
		}
		pts[name] = &point{fireAt: n}
	}
	points = pts
	if len(pts) > 0 {
		armed.Store(1)
	}
	return nil
}

// ConfigureFromEnv arms from DIMD_FAULTS. A malformed spec is returned as an
// error so the daemon can refuse to start half-armed.
func ConfigureFromEnv() error {
	return Configure(os.Getenv("DIMD_FAULTS"))
}

// Reset disarms every point (test teardown).
func Reset() { _ = Configure("") }

// Hit records a traversal of the named point and reports whether the fault
// fires on this traversal. Each armed point fires exactly once.
func Hit(name string) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok || p.fired {
		return false
	}
	p.hits++
	if p.hits >= p.fireAt {
		p.fired = true
		return true
	}
	return false
}

// Error returns a synthetic fault error if the named point fires on this
// traversal, nil otherwise.
func Error(name string) error {
	if Hit(name) {
		return fmt.Errorf("faultinject: injected fault at %s", name)
	}
	return nil
}
