package thermal

import (
	"math"
	"sync"
	"testing"

	"repro/internal/units"
)

// leapRun drives a fresh testNetwork through a representative mix of leap
// windows and returns the final temperatures plus the accumulated sums.
func leapRun(n *Network, junctions []NodeID) ([]float64, []float64, float64) {
	src := coupledPower{pkg: 2, junctions: junctions}
	sums := make([]float64, n.NumNodes())
	dt := 2 * units.Millisecond
	var pow float64
	for _, k := range []int{50, 37, 50, 128, 5, 50, 1000, 50} {
		pow += n.LeapSteps(k, dt, src, sums)
	}
	temps := make([]float64, n.NumNodes())
	copy(temps, n.temp)
	return temps, sums, pow
}

// TestShareBitIdentical pins the sharing contract: a network that adopts a
// published snapshot must produce bit-identical temperatures, sums and
// energy to one that builds every propagator itself.
func TestShareBitIdentical(t *testing.T) {
	ref, junctions := testNetwork(25.2)
	refTemps, refSums, refPow := leapRun(ref, junctions)

	share := ref.ExportShare()
	if rungs, _ := share.Levels(); rungs == 0 {
		t.Fatal("exported share carries no built rungs")
	}

	adopter, junctions2 := testNetwork(25.2)
	adopter.AdoptShare(share)
	gotTemps, gotSums, gotPow := leapRun(adopter, junctions2)

	for i := range refTemps {
		if math.Float64bits(gotTemps[i]) != math.Float64bits(refTemps[i]) {
			t.Errorf("node %d temp: adopted %v, self-built %v (must be bit-identical)", i, gotTemps[i], refTemps[i])
		}
		if math.Float64bits(gotSums[i]) != math.Float64bits(refSums[i]) {
			t.Errorf("node %d sum: adopted %v, self-built %v", i, gotSums[i], refSums[i])
		}
	}
	if math.Float64bits(gotPow) != math.Float64bits(refPow) {
		t.Errorf("power sum: adopted %v, self-built %v", gotPow, refPow)
	}
}

// TestShareExactStepBitIdentical pins decay-table sharing through the exact
// kernel: adopted decay factors must reproduce StepFrom bit for bit.
func TestShareExactStepBitIdentical(t *testing.T) {
	ref, junctions := testNetwork(25.2)
	src := fixedPower{pkg: 2, junctions: junctions}
	for i := 0; i < 500; i++ {
		ref.StepFrom(2*units.Millisecond, src)
	}
	share := ref.ExportShare()

	a, ja := testNetwork(25.2)
	b, jb := testNetwork(25.2)
	b.AdoptShare(share)
	for i := 0; i < 500; i++ {
		a.StepFrom(2*units.Millisecond, fixedPower{pkg: 2, junctions: ja})
		b.StepFrom(2*units.Millisecond, fixedPower{pkg: 2, junctions: jb})
	}
	for i := range a.temp {
		if math.Float64bits(a.temp[i]) != math.Float64bits(b.temp[i]) {
			t.Errorf("node %d: plain %v, adopted %v", i, a.temp[i], b.temp[i])
		}
	}
}

// TestTopoKey pins the sharing precondition: identical topologies hash
// alike (including across differing boundary temperatures, which the
// propagators never see), while a changed conductance or capacitance keys
// separately.
func TestTopoKey(t *testing.T) {
	a, _ := testNetwork(25.2)
	b, _ := testNetwork(40)
	if a.TopoKey() != b.TopoKey() {
		t.Error("identical topologies with different start temperatures must share a TopoKey")
	}
	c := NewNetwork()
	amb := c.AddBoundary("ambient", 30) // different boundary temp only
	sink := c.AddNode("heatsink", 170, 25.2)
	pkg := c.AddNode("package", 45, 25.2)
	c.Connect(sink, amb, 0.115)
	c.Connect(pkg, sink, 0.045)
	for i := 0; i < 4; i++ {
		j := c.AddNode("junction", 0.0375, 25.2)
		c.Connect(j, pkg, 0.80)
	}
	if a.TopoKey() != c.TopoKey() {
		t.Error("boundary temperature must not enter the TopoKey")
	}

	d := NewNetwork()
	amb = d.AddBoundary("ambient", 25.2)
	sink = d.AddNode("heatsink", 170, 25.2)
	pkg = d.AddNode("package", 45, 25.2)
	d.Connect(sink, amb, 0.115*1.2) // fan-scaled sink resistance
	d.Connect(pkg, sink, 0.045)
	for i := 0; i < 4; i++ {
		j := d.AddNode("junction", 0.0375, 25.2)
		d.Connect(j, pkg, 0.80)
	}
	if a.TopoKey() == d.TopoKey() {
		t.Error("a changed conductance must change the TopoKey")
	}
}

// TestLadderCacheFirstPutWins pins the publication discipline under
// concurrency: many representatives racing to publish snapshots for one
// key must all converge on a single live snapshot, and a lookup that found
// the published snapshot must keep resolving to that same pointer forever —
// a live ladder set is never rebuilt or replaced. Run under -race this also
// proves the lock discipline.
func TestLadderCacheFirstPutWins(t *testing.T) {
	cache := NewLadderCache()
	const workers = 32
	winners := make([]*PropShare, workers)
	var wg sync.WaitGroup
	var key uint64
	{
		n, _ := testNetwork(25.2)
		key = n.TopoKey()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if ps := cache.Get(key); ps != nil {
				// Found a live snapshot: adopt it, never rebuild.
				winners[w] = ps
				return
			}
			n, junctions := testNetwork(25.2)
			leapRun(n, junctions)
			winners[w] = cache.Put(key, n.ExportShare())
		}(w)
	}
	wg.Wait()
	first := winners[0]
	for w, ps := range winners {
		if ps == nil {
			t.Fatalf("worker %d ended with no snapshot", w)
		}
		if ps != first {
			t.Errorf("worker %d adopted a different snapshot than worker 0: live ladders must never be replaced", w)
		}
	}
	if got := cache.Get(key); got != first {
		t.Errorf("post-race lookup returned %p, want the first-published %p", got, first)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d snapshots for one key, want 1", cache.Len())
	}
}

// TestEvictionDeterministic pins the LRU tie-break: with all recency stamps
// equal (the post-wrap clean epoch), the victim is chosen by key bits, not
// slot position, so two networks that filled their slots in different
// orders evict identically.
func TestEvictionDeterministic(t *testing.T) {
	sizes := []float64{0.002, 0.000311, 0.000097, 0.000733, 0.0005, 0.00031, 0.00017, 0.00092}
	fill := func(order []int) *Network {
		n, _ := testNetwork(25.2)
		n.flattenIfDirty()
		for _, i := range order {
			n.decayFor(sizes[i])
		}
		// Force the tie: wipe all recency stamps to the clean epoch.
		for i := range n.slots {
			n.slots[i].used = 0
		}
		return n
	}
	forward := make([]int, len(sizes))
	backward := make([]int, len(sizes))
	for i := range forward {
		forward[i] = i
		backward[i] = len(sizes) - 1 - i
	}
	a := fill(forward)
	b := fill(backward)
	const newSize = 0.00061
	a.decayFor(newSize)
	b.decayFor(newSize)
	evictedA := missingKey(a, sizes)
	evictedB := missingKey(b, sizes)
	if evictedA != evictedB {
		t.Errorf("fill-order-dependent eviction: forward evicted %v, backward evicted %v", evictedA, evictedB)
	}
	// The deterministic rule is: smallest key bits among the tied slots.
	wantBits := math.Float64bits(sizes[0])
	for _, s := range sizes[1:] {
		if b := math.Float64bits(s); b < wantBits {
			wantBits = b
		}
	}
	if math.Float64bits(evictedA) != wantBits {
		t.Errorf("evicted %v, want the smallest-bits key %v", evictedA, math.Float64frombits(wantBits))
	}
}

// missingKey returns which of the given step sizes no longer has a decay
// slot.
func missingKey(n *Network, sizes []float64) float64 {
	for _, s := range sizes {
		bits := math.Float64bits(s)
		found := false
		for i := range n.slots {
			if n.slots[i].bits == bits {
				found = true
				break
			}
		}
		if !found {
			return s
		}
	}
	return 0
}

// flattenIfDirty is a test helper exposing the lazy flatten.
func (n *Network) flattenIfDirty() {
	if n.dirty {
		n.flatten()
	}
}

// TestTickWrapGuard pins the counter-wrap path: with the recency clock one
// increment from wrapping, lookups must keep working, reset every stamp to
// the clean epoch, and restart the clock — never invert LRU order or stall.
func TestTickWrapGuard(t *testing.T) {
	n, _ := testNetwork(25.2)
	n.flattenIfDirty()
	n.decayFor(0.002)
	n.ladderFor(0.002)
	n.decayTick = math.MaxUint64 - 1
	n.decayFor(0.002)         // tick -> MaxUint64
	d := n.decayFor(0.000311) // wraps: epoch reset, tick restarts at 1
	if n.decayTick == 0 || n.decayTick > 4 {
		t.Errorf("decayTick after wrap = %d, want a small restarted epoch", n.decayTick)
	}
	if d == nil {
		t.Fatal("decayFor returned nil across the wrap")
	}
	lad := n.ladderFor(0.002)
	if lad == nil || lad.bits != math.Float64bits(0.002) {
		t.Fatal("ladderFor lost its ladder across the wrap")
	}
	// Stamps must be fresh-epoch: nothing may still carry a huge stamp that
	// would outrank every future touch.
	for i := range n.slots {
		if n.slots[i].used > n.decayTick {
			t.Errorf("slot %d stamp %d outranks the restarted clock %d", i, n.slots[i].used, n.decayTick)
		}
	}
	for i := range n.ladders {
		if n.ladders[i].used > n.decayTick {
			t.Errorf("ladder %d stamp %d outranks the restarted clock %d", i, n.ladders[i].used, n.decayTick)
		}
	}
}
