package scenario

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/webserver"
)

// syntheticResult fabricates a deterministic per-machine result with
// magnitudes adversarial to naive float64 accumulation: watt-scale power
// against second-scale busy time, with an occasional large outlier the way a
// throttled machine shows up in a real fleet.
func syntheticResult(i int) MachineResult {
	r := MachineResult{
		Index:         i,
		Seed:          uint64(i) * 0x9e3779b97f4a7c15,
		FanFactor:     1,
		MeanJunction:  50 + float64(i%911)*0.01,
		PeakJunction:  60 + float64(i%373)*0.02,
		WorkRate:      0.97 + 1e-7*float64(i%101),
		MeanPower:     85.5 + 1e-6*float64(i%53),
		InjectedIdleS: 0.125 + 1e-8*float64(i%29),
		BusyS:         29.875,
		ViolationS:    0,
	}
	if i%1000 == 0 {
		// Outlier machines dominate the running sum's exponent, the
		// condition under which naive accumulation sheds the small terms.
		r.MeanPower += 1e7
		r.ViolationS = 12.5
		r.Violations = 3
	}
	return r
}

// TestAggregateKahanMillionMachines is the fleet-accumulator regression at
// 1e6 synthetic machines: the compensated index-ordered sums must stay
// within one ulp of an exact big.Float reference on the accumulators the
// naive implementation drifted on (total power, injected idle, occupancy),
// and the accessor-based aggregation used by the tiled mega path must be
// bit-identical to aggregating a materialised slice — the summation-order
// contract.
func TestAggregateKahanMillionMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6-machine aggregation in -short mode")
	}
	const n = 1_000_000
	machines := make([]MachineResult, n)
	exactPower := new(big.Float).SetPrec(200)
	exactInjected := new(big.Float).SetPrec(200)
	exactOcc := new(big.Float).SetPrec(200)
	for i := range machines {
		machines[i] = syntheticResult(i)
		m := &machines[i]
		exactPower.Add(exactPower, big.NewFloat(m.MeanPower))
		exactInjected.Add(exactInjected, big.NewFloat(m.InjectedIdleS))
		exactOcc.Add(exactOcc, big.NewFloat(m.BusyS+m.InjectedIdleS))
	}

	spec := &Spec{Name: "synthetic"}
	agg := aggregate(spec, machines)

	checkUlp := func(name string, got float64, exact *big.Float) {
		t.Helper()
		want, _ := exact.Float64()
		ulp := math.Nextafter(want, math.Inf(1)) - want
		if math.Abs(got-want) > ulp {
			t.Errorf("%s = %.17g, exact %.17g (diff %g > 1 ulp at 1e6 machines)", name, got, want, got-want)
		}
	}
	checkUlp("TotalPower", agg.TotalPower, exactPower)
	wantOverhead := func() float64 {
		inj, _ := exactInjected.Float64()
		occ, _ := exactOcc.Float64()
		return 100 * inj / occ
	}()
	if math.Abs(agg.OverheadPct-wantOverhead) > 1e-12*wantOverhead {
		t.Errorf("OverheadPct = %.17g, exact %.17g", agg.OverheadPct, wantOverhead)
	}

	// Order contract: the tiled accessor (what RunMega aggregates through)
	// must reproduce the slice aggregation bit for bit.
	viaAccessor := aggregateFrom(spec, n, func(i int) *MachineResult { return &machines[i] })
	if viaAccessor != agg {
		t.Errorf("accessor aggregation diverged from slice aggregation:\n slice    %+v\n accessor %+v", agg, viaAccessor)
	}
}

// TestAggregateWebAccumulators pins the web-QoS accumulators through the
// Kahan path: mean of the good fractions, min, and summed throughput.
func TestAggregateWebAccumulators(t *testing.T) {
	machines := make([]MachineResult, 4)
	fracs := []float64{0.5, 0.25, 1, 0.75}
	for i := range machines {
		// Shape Good/Completed so GoodFraction lands exactly on fracs[i].
		machines[i] = MachineResult{
			Index: i,
			Web: &webserver.Stats{
				Completed:  4,
				Good:       int(fracs[i] * 4),
				Throughput: 10 * float64(i+1),
			},
		}
	}
	agg := aggregate(&Spec{Name: "web"}, machines)
	if agg.WebMachines != 4 {
		t.Fatalf("WebMachines = %d, want 4", agg.WebMachines)
	}
	if want := (0.5 + 0.25 + 1 + 0.75) / 4; agg.WebGoodMean != want {
		t.Errorf("WebGoodMean = %v, want %v", agg.WebGoodMean, want)
	}
	if agg.WebGoodMin != 0.25 {
		t.Errorf("WebGoodMin = %v, want 0.25", agg.WebGoodMin)
	}
	if agg.WebThroughput != 100 {
		t.Errorf("WebThroughput = %v, want 100", agg.WebThroughput)
	}
}
