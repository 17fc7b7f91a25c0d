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

// bitsEqual reports whether two float slices match bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestShareBitIdentical pins the sharing contract: a network that takes its
// propagators from a store another network already filled must produce
// bit-identical temperatures, sums and energy to one that builds every
// propagator privately — and must build nothing itself, so each composed
// window is built once per topology.
func TestShareBitIdentical(t *testing.T) {
	ref, junctions := testNetwork(25.2)
	refTemps, refSums, refPow := leapRun(ref, junctions)

	store := NewPropStore()
	first, jf := testNetwork(25.2)
	first.SetPropStore(store)
	leapRun(first, jf)
	filled := store.Stats()
	if filled.Entries != 1 || filled.Bytes == 0 {
		t.Fatalf("after one network the store holds %d entries of %d bytes, want 1 non-empty entry", filled.Entries, filled.Bytes)
	}

	adopter, ja := testNetwork(25.2)
	adopter.SetPropStore(store)
	gotTemps, gotSums, gotPow := leapRun(adopter, ja)
	if !bitsEqual(gotTemps, refTemps) || !bitsEqual(gotSums, refSums) {
		t.Errorf("store-fed network diverged from the private build:\ntemps %v\n want %v\nsums  %v\n want %v", gotTemps, refTemps, gotSums, refSums)
	}
	if math.Float64bits(gotPow) != math.Float64bits(refPow) {
		t.Errorf("power sum: store-fed %v, private %v", gotPow, refPow)
	}
	after := store.Stats()
	if after.Bytes != filled.Bytes || after.Hits != 1 || after.Misses != 1 {
		t.Errorf("second network: bytes %d → %d, hits %d, misses %d; want no new propagators, 1 hit, 1 miss",
			filled.Bytes, after.Bytes, after.Hits, after.Misses)
	}
}

// TestShareExactStepBitIdentical pins the store's decay table to the exact
// kernel's: the factors the base rung is built from are decayFor's bit for
// bit, and a store-fed network still steps exactly like a private one.
func TestShareExactStepBitIdentical(t *testing.T) {
	store := NewPropStore()
	a, ja := testNetwork(25.2)
	b, jb := testNetwork(25.2)
	b.SetPropStore(store)
	leapRun(b, jb) // resolves b's entry; a leaps the same windows
	leapRun(a, ja)
	for i := 0; i < 500; i++ {
		a.StepFrom(2*units.Millisecond, fixedPower{pkg: 2, junctions: ja})
		b.StepFrom(2*units.Millisecond, fixedPower{pkg: 2, junctions: jb})
	}
	if !bitsEqual(a.temp, b.temp) {
		t.Errorf("exact steps diverged: private %v, store-fed %v", a.temp, b.temp)
	}
	e := b.ladderFor(0.002).e
	if !bitsEqual(e.decay, b.decayFor(0.002)) {
		t.Errorf("store decay table %v differs from decayFor %v", e.decay, b.decayFor(0.002))
	}
}

// topoKey is the store's topology hash of n.
func topoKey(n *Network) uint64 { return hashWords(n.topoWords()) }

// TestTopoKey pins the sharing precondition: identical topologies hash
// alike (including across differing boundary temperatures, which the
// propagators never see), while a changed conductance or capacitance keys
// separately.
func TestTopoKey(t *testing.T) {
	a, _ := testNetwork(25.2)
	b, _ := testNetwork(40)
	if topoKey(a) != topoKey(b) {
		t.Error("identical topologies with different start temperatures must share a topology hash")
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
	if topoKey(a) != topoKey(c) {
		t.Error("boundary temperature must not enter the topology hash")
	}

	d := fanScaled(1.2)
	if topoKey(a) == topoKey(d) {
		t.Error("a changed conductance must change the topology hash")
	}
}

// fanScaled is testNetwork's topology with the sink-ambient resistance
// scaled, as a fan factor scales it: same shape, its own propagators.
func fanScaled(f float64) *Network {
	d := NewNetwork()
	amb := d.AddBoundary("ambient", 25.2)
	sink := d.AddNode("heatsink", 170, 25.2)
	pkg := d.AddNode("package", 45, 25.2)
	d.Connect(sink, amb, 0.115*f)
	d.Connect(pkg, sink, 0.045)
	for i := 0; i < 4; i++ {
		j := d.AddNode("junction", 0.0375, 25.2)
		d.Connect(j, pkg, 0.80)
	}
	return d
}

// TestPropStoreFirstPublishWins pins publication under concurrency: many
// networks of one topology leaping the same windows at once through one
// store must all resolve the same entry, every rung and window slot must
// hold exactly one published value, and every network's output must match
// a private build bit for bit. Run under -race this also proves the
// publication discipline.
func TestPropStoreFirstPublishWins(t *testing.T) {
	ref, jr := testNetwork(25.2)
	refTemps, refSums, refPow := leapRun(ref, jr)

	store := NewPropStore()
	const workers = 32
	entries := make([]*propEntry, workers)
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n, junctions := testNetwork(25.2)
			n.SetPropStore(store)
			temps, sums, pow := leapRun(n, junctions)
			if !bitsEqual(temps, refTemps) || !bitsEqual(sums, refSums) || math.Float64bits(pow) != math.Float64bits(refPow) {
				errs[w] = "diverged from the private build"
			}
			entries[w] = n.ladderFor(0.002).e
		}(w)
	}
	wg.Wait()
	for w, msg := range errs {
		if msg != "" {
			t.Errorf("worker %d: %s", w, msg)
		}
		if entries[w] != entries[0] {
			t.Errorf("worker %d resolved a different entry than worker 0", w)
		}
	}
	st := store.Stats()
	if st.Entries != 1 || st.Misses != 1 || st.Hits != workers-1 {
		t.Errorf("store stats %+v, want 1 entry, 1 miss, %d hits", st, workers-1)
	}
	// Each published propagator is counted once: the bytes equal a single
	// network's fill.
	solo := NewPropStore()
	n, junctions := testNetwork(25.2)
	n.SetPropStore(solo)
	leapRun(n, junctions)
	if got, want := st.Bytes, solo.Stats().Bytes; got != want {
		t.Errorf("racing publishers account %d bytes, one network %d: a lost race was counted", got, want)
	}
}

// TestPropStoreClearsWhenFull pins the bound: a resolve that would add an
// entry to a store at maxPropEntries entries, or at maxPropBytes bytes,
// drops every entry first; networks holding a dropped entry keep working.
func TestPropStoreClearsWhenFull(t *testing.T) {
	store := NewPropStore()
	held, jh := testNetwork(25.2)
	held.SetPropStore(store)
	leapRun(held, jh)
	for i := 1; i < maxPropEntries; i++ {
		store.resolve(fanScaled(1+float64(i)/1e4), 0.002)
	}
	if st := store.Stats(); st.Entries != maxPropEntries || st.Bytes == 0 {
		t.Fatalf("filled store: %+v, want %d entries, one of them built", st, maxPropEntries)
	}
	store.resolve(fanScaled(2), 0.002)
	if st := store.Stats(); st.Entries != 1 || st.Bytes != 0 {
		t.Errorf("resolve on a full store: %+v, want it cleared to 1 empty entry", st)
	}

	store.resolve(fanScaled(3), 0.002)
	store.bytes.Store(maxPropBytes)
	store.resolve(fanScaled(4), 0.002)
	if st := store.Stats(); st.Entries != 1 || st.Bytes != 0 {
		t.Errorf("resolve at the byte bound: %+v, want it cleared to 1 empty entry", st)
	}

	// The network holding a dropped entry still leaps, bit-identically.
	ref, jr := testNetwork(25.2)
	leapRun(ref, jr)
	leapRun(ref, jr)
	leapRun(held, jh)
	if !bitsEqual(held.temp, ref.temp) {
		t.Errorf("network on a dropped entry diverged: %v, want %v", held.temp, ref.temp)
	}
}

// TestPropStoreKeyCollision pins the collision guard: an entry whose key
// matches but whose topology words differ is never handed out; the network
// gets a private entry instead.
func TestPropStoreKeyCollision(t *testing.T) {
	store := NewPropStore()
	n, _ := testNetwork(25.2)
	other := fanScaled(1.2)
	key := propKey{topoKey(n), math.Float64bits(0.002)}
	forged := other.newEntry(0.002, other.topoWords(), store.bytes)
	store.m[key] = forged
	if e := store.resolve(n, 0.002); e == forged || e.words != nil {
		t.Error("a key collision handed out another topology's entry")
	}
	if st := store.Stats(); st.Entries != 1 || st.Hits != 0 {
		t.Errorf("collision touched the store: %+v", st)
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
