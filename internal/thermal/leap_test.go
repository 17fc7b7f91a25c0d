package thermal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// testNetwork builds the testbed topology (ambient, heatsink, package, four
// junctions) with every node at the given start temperature.
func testNetwork(start units.Celsius) (*Network, []NodeID) {
	n := NewNetwork()
	amb := n.AddBoundary("ambient", 25.2)
	sink := n.AddNode("heatsink", 170, start)
	pkg := n.AddNode("package", 45, start)
	n.Connect(sink, amb, 0.115)
	n.Connect(pkg, sink, 0.045)
	var junctions []NodeID
	for i := 0; i < 4; i++ {
		j := n.AddNode("junction", 0.0375, start)
		n.Connect(j, pkg, 0.80)
		junctions = append(junctions, j)
	}
	return n, junctions
}

// fixedPower is a temperature-independent heat source.
type fixedPower struct {
	pkg       NodeID
	junctions []NodeID
}

func (c fixedPower) HeatInput(temps, out []float64) {
	out[c.pkg] += 15
	for _, j := range c.junctions {
		out[j] += 11
	}
}

// coupledPower mimics the chip model's leakage coupling and linearises
// itself, so LeapSteps takes the analytic-slope path like the machine layer.
type coupledPower struct {
	pkg       NodeID
	junctions []NodeID
}

func (c coupledPower) HeatInput(temps, out []float64) {
	out[c.pkg] += 15
	for _, j := range c.junctions {
		out[j] += 8 + 0.8*math.Exp((temps[j]-55)/10)
	}
}

func (c coupledPower) HeatLinear(temps, dT, dp []float64) {
	for _, j := range c.junctions {
		dp[j] += 0.08 * math.Exp((temps[j]-55)/10) * dT[j]
	}
}

// TestLeapMatchesStepConstantPower: with a temperature-independent source
// the per-step map is exactly affine, so a leap window must reproduce
// step-by-step integration to float precision — temperatures, discrete
// temperature sums, and the energy sum alike.
func TestLeapMatchesStepConstantPower(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 16, 50, 137, 1024} {
		ref, junctions := testNetwork(25.2)
		leap, _ := testNetwork(25.2)
		src := fixedPower{pkg: 2, junctions: junctions}
		dt := 2 * units.Millisecond

		sums := make([]float64, ref.NumNodes())
		var powRef float64
		for i := 0; i < k; i++ {
			ref.StepFrom(dt, src)
			for n := 0; n < ref.NumNodes(); n++ {
				sums[n] += float64(ref.Temp(NodeID(n)))
			}
			powRef += 15 + 4*11
		}
		leapSums := make([]float64, leap.NumNodes())
		powLeap := leap.LeapSteps(k, dt, src, leapSums)

		for n := 0; n < ref.NumNodes(); n++ {
			if d := math.Abs(float64(ref.Temp(NodeID(n))) - float64(leap.Temp(NodeID(n)))); d > 1e-9 {
				t.Fatalf("k=%d node %d: leap %.12f vs step %.12f (diff %g)", k, n, leap.Temp(NodeID(n)), ref.Temp(NodeID(n)), d)
			}
			if d := math.Abs(sums[n] - leapSums[n]); d > 1e-6*float64(k) {
				t.Fatalf("k=%d node %d: temp sum diff %g", k, n, d)
			}
		}
		if d := math.Abs(powRef - powLeap); d > 1e-6*float64(k) {
			t.Fatalf("k=%d: power sum %g vs %g", k, powLeap, powRef)
		}
	}
}

// TestLeapCoupledPowerWithinTolerance: with the leakage-style exponential
// coupling the leap controller must stay inside its documented band against
// step-by-step integration, through a hot transient: everything starts at
// 60 °C, so the package and sink cool while the leaking junctions climb ten
// degrees above them. (From 70 °C this source runs away thermally and both
// integrators end at NaN, which no comparison below could catch.)
func TestLeapCoupledPowerWithinTolerance(t *testing.T) {
	ref, junctions := testNetwork(60)
	leap, _ := testNetwork(60)
	src := coupledPower{pkg: 2, junctions: junctions}
	dt := 2 * units.Millisecond
	const k = 500 // one second of decay

	for i := 0; i < k; i++ {
		ref.StepFrom(dt, src)
	}
	sums := make([]float64, leap.NumNodes())
	leap.LeapSteps(k, dt, src, sums)

	var worst float64
	for n := 0; n < ref.NumNodes(); n++ {
		r, l := float64(ref.Temp(NodeID(n))), float64(leap.Temp(NodeID(n)))
		if math.IsNaN(r) || math.IsInf(r, 0) || math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("node %d: exact %v, leap %v: the transient must stay finite", n, r, l)
		}
		worst = max(worst, math.Abs(r-l))
	}
	if worst >= 0.05 {
		t.Fatalf("leap diverged by %.4f C over %d coupled steps", worst, k)
	}
	chunks, steps := leap.LeapStats()
	if steps != k {
		t.Fatalf("leap covered %d steps, want %d", steps, k)
	}
	if chunks >= k/4 {
		t.Errorf("no compression: %d chunks for %d steps", chunks, k)
	}
	t.Logf("divergence %.5f C, %d chunks for %d steps (%d rejects)", worst, chunks, steps, leap.LeapRejects())
}

// TestStepPolyAccuracy: the polynomial-decay kernel must track the exact
// exponential update to sub-millikelvin for any step at or below the
// machine layer's ThermalStep.
func TestStepPolyAccuracy(t *testing.T) {
	for _, dt := range []units.Time{13 * units.Microsecond, 777 * units.Microsecond, 2 * units.Millisecond} {
		ref, junctions := testNetwork(60)
		poly, _ := testNetwork(60)
		src := fixedPower{pkg: 2, junctions: junctions}
		for i := 0; i < 20; i++ {
			ref.StepFrom(dt, src)
			poly.StepPolyFrom(dt, src)
		}
		for n := 0; n < ref.NumNodes(); n++ {
			if d := math.Abs(float64(ref.Temp(NodeID(n))) - float64(poly.Temp(NodeID(n)))); d > 1e-3 {
				t.Fatalf("dt=%v node %d: poly drifted %.6f C", dt, n, d)
			}
		}
	}
}

// TestDecayCacheTransparent: the decay cache is an invisible optimisation —
// a network whose cache was churned through many step sizes must produce
// bit-identical temperatures to a fresh one, for the same step sequence.
func TestDecayCacheTransparent(t *testing.T) {
	fresh, junctions := testNetwork(40)
	churned, _ := testNetwork(40)
	src := fixedPower{pkg: 2, junctions: junctions}

	// Churn: cycle more sizes than the cache holds, then reset state.
	for i := 0; i < 3*decaySlots; i++ {
		churned.StepFrom(units.Time(i+1)*17*units.Microsecond, src)
	}
	for n := 0; n < churned.NumNodes(); n++ {
		churned.SetTemp(NodeID(n), fresh.Temp(NodeID(n)))
	}

	pattern := []units.Time{
		2 * units.Millisecond, 311 * units.Microsecond, units.Millisecond,
		2 * units.Millisecond, 97 * units.Microsecond,
	}
	for i := 0; i < 40; i++ {
		dt := pattern[i%len(pattern)]
		fresh.StepFrom(dt, src)
		churned.StepFrom(dt, src)
	}
	for n := 0; n < fresh.NumNodes(); n++ {
		if fresh.Temp(NodeID(n)) != churned.Temp(NodeID(n)) {
			t.Fatalf("node %d: cache state leaked into results: %.15f vs %.15f", n, fresh.Temp(NodeID(n)), churned.Temp(NodeID(n)))
		}
	}
}

// TestLeapStepsZeroAlloc: once the ladder is warm, leap windows allocate
// nothing.
func TestLeapStepsZeroAlloc(t *testing.T) {
	n, junctions := testNetwork(40)
	var src HeatSource = &fixedPower{pkg: 2, junctions: junctions}
	sums := make([]float64, n.NumNodes())
	dt := 2 * units.Millisecond
	for i := 0; i < 10; i++ {
		n.LeapSteps(50, dt, src, sums) // warm the ladder, memo and scratch
	}
	if allocs := testing.AllocsPerRun(50, func() {
		n.LeapSteps(50, dt, src, sums)
	}); allocs > 0 {
		t.Errorf("LeapSteps allocates %.1f/op after warmup, want 0", allocs)
	}
	n.StepFrom(dt, src)
	if allocs := testing.AllocsPerRun(50, func() {
		n.StepFrom(dt, src)
	}); allocs > 0 {
		t.Errorf("StepFrom allocates %.1f/op, want 0", allocs)
	}
}

// TestBlockedRowsBitIdentical pins the four-row kernels (applyRows on a
// whole fused block and on its right half, sumRows) to the one-row loop — each row summed in ascending
// index from +0 — bit for bit, on random fused blocks of every size from 1
// to 9 nodes, which covers each trailing-block path.
func TestBlockedRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	val := func() float64 { return (rng.Float64() - 0.5) * math.Exp2(float64(rng.Intn(40)-20)) }
	rowDot := func(row, x []float64) float64 {
		var acc float64
		for j, v := range row {
			acc += v * x[j]
		}
		return acc
	}
	same := func(what string, nn, i int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("nn=%d %s row %d: blocked %x, one-row %x", nn, what, i, math.Float64bits(got), math.Float64bits(want))
		}
	}
	for nn := 1; nn <= 9; nn++ {
		for trial := 0; trial < 20; trial++ {
			w := 2 * nn
			m := make([]float64, nn*w)
			xy := make([]float64, w)
			diff := make([]float64, nn)
			for _, s := range [][]float64{m, xy, diff} {
				for i := range s {
					s[i] = val()
				}
			}

			got := make([]float64, nn)
			applyRows(got, m, w, xy)
			for i := 0; i < nn; i++ {
				same("[A|B]·xy", nn, i, got[i], rowDot(m[i*w:i*w+w], xy))
			}
			applyRows(got, m[nn:], w, diff)
			for i := 0; i < nn; i++ {
				same("B·diff", nn, i, got[i], rowDot(m[i*w+nn:i*w+w], diff))
			}

			// A random subset of rows in random order, as sensed rows are.
			var rows []NodeID
			for _, i := range rng.Perm(nn)[:1+rng.Intn(nn)] {
				rows = append(rows, NodeID(i))
			}
			for _, correct := range []bool{false, true} {
				sums, want := make([]float64, nn), make([]float64, nn)
				for i := range sums {
					sums[i] = val()
					want[i] = sums[i]
				}
				sumRows(sums, rows, m, xy, diff, correct)
				for _, r := range rows {
					row := m[int(r)*w : int(r)*w+w]
					acc := rowDot(row, xy)
					if correct {
						acc += 0.5 * rowDot(row[nn:], diff)
					}
					want[r] += acc
				}
				for i := range sums {
					same("sumRows", nn, i, sums[i], want[i])
				}
			}
		}
	}
}
