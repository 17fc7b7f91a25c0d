// The propagator store.
//
// A leap propagator is a pure function of (topology, step size): the P/U/Q/W
// maps come from node capacitances, boundary flags and the CSR conductance
// structure, never from temperatures (boundary rows are identity, so even the
// ambient setpoint stays out). A fleet of same-shape machines would otherwise
// build byte-identical ladder rungs and composed windows once per machine.
// PropStore holds them once per topology instead: one entry per (topology,
// step size), resolved by each network at its first leap window for that step
// size and used directly from then on.
//
// An entry is append-only. Every rung and composed window is published once,
// first publisher wins, and is never mutated afterwards, so the chunk path
// reads it with one atomic load and no lock. Two networks racing to build the
// same propagator build bit-identical values; the loser uses the winner's and
// drops its own.
package thermal

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	// maxPropEntries and maxPropBytes bound a store. A resolve that would
	// add an entry to a store already holding maxPropEntries entries, or
	// whose entries already hold maxPropBytes of propagators, first drops
	// every entry: the idle-solve memo's clear-when-full rule. Networks
	// keep using the entries they resolved; later networks rebuild. A
	// store is a pure memo, so clearing it costs builds, never output.
	// A fleet-cold job needs one entry of 0.2 MB for all its machines; a
	// fleet with a continuous fan spread adds one entry of 0.07-0.15 MB per
	// machine, so the byte bound is the one such fleets reach.
	maxPropEntries = 1024
	maxPropBytes   = 16 << 20
)

// PropStore is a concurrent, append-only store of leap propagators keyed by
// (topology hash, step-size bits). Its owner shares it between every network
// that should share propagators — one scenario run, or a daemon's whole
// lifetime — and hands it to each network with SetPropStore. The zero value
// is not usable; call NewPropStore.
type PropStore struct {
	mu     sync.Mutex
	m      map[propKey]*propEntry
	bytes  *atomic.Int64 // propagator bytes of the entries in m
	hits   int64
	misses int64
}

// propKey identifies one store entry.
type propKey struct{ topo, bits uint64 }

// NewPropStore returns an empty store.
func NewPropStore() *PropStore {
	return &PropStore{m: make(map[propKey]*propEntry), bytes: new(atomic.Int64)}
}

// PropStoreStats is a point-in-time view of a store for metrics.
type PropStoreStats struct {
	Entries int
	Bytes   int64
	// Hits and Misses count resolves that found a published entry and
	// resolves that had to create one.
	Hits, Misses int64
}

// Stats reports the store's size and resolve counters.
func (s *PropStore) Stats() PropStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return PropStoreStats{
		Entries: len(s.m),
		Bytes:   s.bytes.Load(),
		Hits:    s.hits,
		Misses:  s.misses,
	}
}

// resolve returns the entry for n's topology at step size dts, creating and
// publishing it on a miss. The topology words are compared in full, so a
// hash collision yields a private entry rather than another topology's
// propagators.
func (s *PropStore) resolve(n *Network, dts float64) *propEntry {
	words := n.topoWords()
	key := propKey{hashWords(words), math.Float64bits(dts)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		if slices.Equal(e.words, words) {
			s.hits++
			return e
		}
		return n.newEntry(dts, nil, new(atomic.Int64))
	}
	s.misses++
	if len(s.m) >= maxPropEntries || s.bytes.Load() >= maxPropBytes {
		// Dropped entries keep counting into the old counter, so the
		// live count never includes them.
		s.m = make(map[propKey]*propEntry)
		s.bytes = new(atomic.Int64)
	}
	e := n.newEntry(dts, words, s.bytes)
	s.m[key] = e
	return e
}

// propEntry holds every propagator of one (topology, step size): the ladder
// rungs, the composed windows and the decay factors the base rung is built
// from.
type propEntry struct {
	words []uint64 // the topology words its key hashes; nil when private
	dts   float64
	nn    int
	decay []float64     // per-node exp(−dts/τ), as Network.decayFor computes it
	bytes *atomic.Int64 // its store's byte count when it was created

	levels [leapMaxLevel + 1]atomic.Pointer[propLevel]
	// small holds composed windows shorter than leapSmallMax steps — the
	// overwhelmingly common case (tick-bounded windows are 50 steps) — so
	// the chunk path pays an array index, not a map probe. composed backs
	// the rare longer lengths and is dropped when it reaches
	// leapComposedCap, under mu.
	small         [leapSmallMax]atomic.Pointer[propLevel]
	mu            sync.Mutex
	composed      map[int]*propLevel
	composedBytes int64
}

// newEntry returns an empty entry for n's topology at step size dts.
func (n *Network) newEntry(dts float64, words []uint64, bytes *atomic.Int64) *propEntry {
	e := &propEntry{words: words, dts: dts, nn: len(n.nodes), bytes: bytes}
	e.decay = make([]float64, e.nn)
	n.fillDecay(e.decay, dts)
	return e
}

// publish installs l in slot unless another network got there first, and
// returns the live value.
func (e *propEntry) publish(slot *atomic.Pointer[propLevel], l *propLevel) *propLevel {
	if slot.CompareAndSwap(nil, l) {
		e.bytes.Add(l.bytes())
		return l
	}
	return slot.Load()
}

// publishLong is publish for a composed window of c ≥ leapSmallMax steps.
func (e *propEntry) publishLong(c int, l *propLevel) *propLevel {
	e.mu.Lock()
	defer e.mu.Unlock()
	if live := e.composed[c]; live != nil {
		return live
	}
	if e.composed == nil || len(e.composed) >= leapComposedCap {
		e.bytes.Add(-e.composedBytes)
		e.composed = make(map[int]*propLevel, 64)
		e.composedBytes = 0
	}
	e.composed[c] = l
	e.composedBytes += l.bytes()
	e.bytes.Add(l.bytes())
	return l
}

// long returns the published composed window of c ≥ leapSmallMax steps, or
// nil.
func (e *propEntry) long(c int) *propLevel {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.composed[c]
}

// bytes is the propagator's footprint.
func (l *propLevel) bytes() int64 {
	return 8 * int64(len(l.p)+len(l.u)+len(l.q)+len(l.w)+len(l.pu)+len(l.qw))
}

// topoWords returns the network's flattened topology as words: node
// capacitances, boundary flags, and the CSR conductance structure. These are
// the complete inputs of the decay factors and leap propagators — boundary
// temperatures enter neither — so two networks with equal words build
// bit-identical propagators for every step size.
func (n *Network) topoWords() []uint64 {
	if n.dirty {
		n.flatten()
	}
	w := make([]uint64, 0, 1+2*len(n.nodes)+len(n.rowStart)+2*len(n.adjIdx))
	w = append(w, uint64(len(n.nodes)))
	for i := range n.nodes {
		nd := &n.nodes[i]
		var b uint64
		if nd.boundary {
			b = 1
		}
		w = append(w, math.Float64bits(nd.capJ), b)
	}
	for _, v := range n.rowStart {
		w = append(w, uint64(v))
	}
	for _, v := range n.adjIdx {
		w = append(w, uint64(v))
	}
	for _, g := range n.adjG {
		w = append(w, math.Float64bits(g))
	}
	return w
}

// hashWords is FNV-1a over the words' bytes, least significant first: the
// store's topology hash. Machines differing only in ambient placement hash
// alike and share propagators; a different fan factor changes a conductance
// and keys separately.
func hashWords(words []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range words {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	return h
}
