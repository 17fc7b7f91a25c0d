// Fleet-shared propagator state.
//
// A leap propagator ladder is a pure function of (topology, step size): the
// P/U/Q/W maps come from node capacitances, boundary flags and the CSR
// conductance structure, never from temperatures (boundary rows are
// identity, so even the ambient setpoint stays out). A fleet of homogeneous
// machines therefore rebuilds byte-identical ladders N times over. This
// file hoists them out: one machine's built ladders are exported as an
// immutable PropShare snapshot, published into a read-locked LadderCache
// keyed by the topology hash, and adopted by every subsequent machine of
// the same shape, whose Networks then consult the snapshot on cache misses
// instead of rebuilding.
//
// The locking discipline is deliberately narrow: the RWMutex guards only
// the cache map. Snapshots themselves are immutable after publication —
// propLevels are never mutated once built, and ExportShare deep-copies the
// one buffer (the decay tables) its exporter could later overwrite — so
// lookups on the simulation hot path are a read-lock and a map probe, and
// adopted state needs no synchronisation at all.
package thermal

import (
	"math"
	"sync"
)

// TopoKey returns a hash of the network's flattened topology: node
// capacitances, boundary flags, and the CSR conductance structure. These
// are the complete inputs of the decay factors and leap propagators —
// boundary temperatures enter neither — so two networks with equal TopoKeys
// build bit-identical propagators for every step size, which is the
// precondition for sharing them. Machines differing only in ambient
// placement hash alike and share; a different fan factor changes a
// conductance and keys separately.
func (n *Network) TopoKey() uint64 {
	if n.dirty {
		n.flatten()
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(len(n.nodes)))
	for i := range n.nodes {
		nd := &n.nodes[i]
		mix(math.Float64bits(nd.capJ))
		if nd.boundary {
			mix(1)
		} else {
			mix(0)
		}
	}
	for _, v := range n.rowStart {
		mix(uint64(v))
	}
	for _, v := range n.adjIdx {
		mix(uint64(v))
	}
	for _, g := range n.adjG {
		mix(math.Float64bits(g))
	}
	return h
}

// ladderShare is one step size's published propagator set: the built ladder
// rungs plus the composed-window memos. All pointers are read-only.
type ladderShare struct {
	levels   []*propLevel
	small    [leapSmallMax]*propLevel
	composed map[int]*propLevel
}

// PropShare is an immutable snapshot of one network's built propagator
// ladders and decay-factor tables, keyed by step-size bits. It is safe for
// unsynchronised concurrent use by any number of adopting networks with the
// same TopoKey; nothing in it is mutated after ExportShare returns.
type PropShare struct {
	ladders map[uint64]*ladderShare
	decay   map[uint64][]float64
}

// Levels reports the number of built ladder rungs and memoised composed
// windows in the snapshot, summed over step sizes — instrumentation for
// tests and benchmarks.
func (ps *PropShare) Levels() (rungs, composed int) {
	for _, ls := range ps.ladders {
		rungs += len(ls.levels)
		for _, l := range ls.small {
			if l != nil {
				composed++
			}
		}
		composed += len(ls.composed)
	}
	return rungs, composed
}

// ExportShare snapshots the network's built propagator rungs, composed
// window memos, and decay tables into an immutable PropShare. Call it only
// once the owning machine has stopped stepping: propLevels are immutable
// once built, so the snapshot aliases them directly, but the decay tables
// live in LRU slots the owner would overwrite on a future miss, so those
// are copied.
func (n *Network) ExportShare() *PropShare {
	ps := &PropShare{
		ladders: make(map[uint64]*ladderShare, len(n.ladders)),
		decay:   make(map[uint64][]float64, decaySlots),
	}
	for i := range n.ladders {
		lad := &n.ladders[i]
		if lad.bits == 0 {
			continue
		}
		ls := &ladderShare{small: lad.small}
		for j := range lad.levels {
			if !lad.levels[j].built {
				break
			}
			ls.levels = append(ls.levels, &lad.levels[j])
		}
		if len(lad.composed) > 0 {
			ls.composed = make(map[int]*propLevel, len(lad.composed))
			for k, v := range lad.composed {
				ls.composed[k] = v
			}
		}
		ps.ladders[lad.bits] = ls
	}
	for i := range n.slots {
		s := &n.slots[i]
		if s.bits == 0 {
			continue
		}
		d := make([]float64, len(s.decay))
		copy(d, s.decay)
		ps.decay[s.bits] = d
	}
	return ps
}

// AdoptShare installs a published snapshot as this network's read-only
// fallback: propagator and decay lookups consult it on local-cache misses
// and use its entries directly instead of rebuilding. The caller must
// guarantee the snapshot came from a network with an equal TopoKey —
// adopted propagators are trusted, not checked, per lookup. Any later
// topology change drops the adoption.
func (n *Network) AdoptShare(ps *PropShare) {
	if n.dirty {
		n.flatten()
	}
	n.shared = ps
}

// sharedLadder returns the adopted snapshot's ladder for the given
// step-size bits, or nil.
func (n *Network) sharedLadder(bits uint64) *ladderShare {
	if n.shared == nil {
		return nil
	}
	return n.shared.ladders[bits]
}

// LadderCache is the fleet-shared, read-locked propagator cache: TopoKey →
// published PropShare. Publication is first-put-wins — once a snapshot for
// a key is live it is never replaced, so concurrent representatives racing
// to publish can never make an adopting machine switch ladders mid-fleet,
// and lookups that found the published snapshot never observe a rebuild.
type LadderCache struct {
	mu sync.RWMutex
	m  map[uint64]*PropShare
}

// NewLadderCache returns an empty cache.
func NewLadderCache() *LadderCache {
	return &LadderCache{m: make(map[uint64]*PropShare)}
}

// Get returns the published snapshot for the topology key, or nil.
func (c *LadderCache) Get(key uint64) *PropShare {
	c.mu.RLock()
	ps := c.m[key]
	c.mu.RUnlock()
	return ps
}

// Put publishes a snapshot for the key unless one is already live, and
// returns the winning snapshot — the existing one on a lost race. Losers
// simply adopt the winner; their privately built ladders are garbage.
func (c *LadderCache) Put(key uint64, ps *PropShare) *PropShare {
	c.mu.Lock()
	defer c.mu.Unlock()
	if live, ok := c.m[key]; ok {
		return live
	}
	c.m[key] = ps
	return ps
}

// Len reports the number of published topologies.
func (c *LadderCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
