package scenario

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/units"
)

// FleetAgg summarises a fleet run across machines: distribution statistics
// of the per-machine temperatures, the totals the operator of a real fleet
// would watch (work delivered, power, injection overhead), and the
// thermal-violation and emergency-backstop tallies.
type FleetAgg struct {
	// Mean-junction distribution across machines (°C).
	MeanJunctionP50 float64
	MeanJunctionP90 float64
	MeanJunctionMax float64
	// Peak-junction distribution across machines (°C).
	PeakJunctionP50 float64
	PeakJunctionP99 float64
	PeakJunctionMax float64

	TotalWorkRate  float64 // fleet reference-seconds of work per second
	TotalPower     float64 // summed mean package power, W
	OverheadPct    float64 // fleet injected idle / occupied core time
	TotalInjection int

	ViolationS      float64 // summed seconds any junction sat above threshold
	TotalViolations int     // summed excursion counts
	MachinesViol    int     // machines with at least one violation

	TM1Trips      int
	TM1ThrottledS float64

	// Web QoS across machines running the webserver component.
	WebMachines   int
	WebGoodMean   float64 // mean "good" fraction
	WebGoodMin    float64
	WebThroughput float64 // summed requests/s
}

// Result is one executed scenario: the resolved per-machine outcomes plus
// the fleet aggregate.
type Result struct {
	Spec     *Spec
	Scale    float64
	Duration units.Time
	Warmup   units.Time
	Machines []MachineResult
	Fleet    FleetAgg
}

// Aggregate folds per-machine results into the fleet view. Exported for the
// fleetsched engine, whose per-machine results share this shape and must
// aggregate identically for cross-path comparability.
func Aggregate(spec *Spec, machines []MachineResult) FleetAgg {
	return aggregate(spec, machines)
}

// aggregate folds per-machine results into the fleet view.
func aggregate(spec *Spec, machines []MachineResult) FleetAgg {
	return aggregateFrom(spec, len(machines), func(i int) *MachineResult { return &machines[i] })
}

// aggregateFrom folds n per-machine results into the fleet view through an
// index accessor, so callers that never materialise a full []MachineResult
// — the mega path tiles a small distinct result set across millions of
// indices — aggregate through the very same arithmetic as the per-machine
// path.
//
// Summation order is part of the determinism contract: every floating-point
// total is a compensated (Kahan) sum folded in strict index order 0..n-1,
// never in worker-completion order, so full, sharded and tiled mega runs
// produce bit-identical aggregates regardless of how the
// simulations were scheduled — and the compensation keeps the totals exact
// to the last bit at million-machine scale, where naive running sums drift.
// The temperature percentiles sort each distribution once and index every
// quantile from the sorted copy (analysis.Quantiles), bit-identical to the
// former per-quantile Percentile calls without their six full-fleet
// copy+sorts.
func aggregateFrom(spec *Spec, n int, at func(int) *MachineResult) FleetAgg {
	var agg FleetAgg
	means := make([]float64, n)
	peaks := make([]float64, n)
	var workRate, power, occ, injected, violS, tm1S, webGood, webTput analysis.Kahan
	agg.WebGoodMin = 1
	for i := 0; i < n; i++ {
		m := at(i)
		means[i] = m.MeanJunction
		peaks[i] = m.PeakJunction
		workRate.Add(m.WorkRate)
		power.Add(m.MeanPower)
		agg.TotalInjection += m.Injections
		occ.Add(m.BusyS + m.InjectedIdleS)
		injected.Add(m.InjectedIdleS)
		violS.Add(m.ViolationS)
		agg.TotalViolations += m.Violations
		if m.Violations > 0 {
			agg.MachinesViol++
		}
		agg.TM1Trips += m.TM1Trips
		tm1S.Add(m.TM1ThrottledS)
		if m.Web != nil {
			agg.WebMachines++
			g := m.Web.GoodFraction()
			webGood.Add(g)
			if g < agg.WebGoodMin {
				agg.WebGoodMin = g
			}
			webTput.Add(m.Web.Throughput)
		}
	}
	agg.TotalWorkRate = workRate.Sum()
	agg.TotalPower = power.Sum()
	agg.ViolationS = violS.Sum()
	agg.TM1ThrottledS = tm1S.Sum()
	agg.WebThroughput = webTput.Sum()
	mq := analysis.Quantiles(means, 50, 90, 100)
	agg.MeanJunctionP50, agg.MeanJunctionP90, agg.MeanJunctionMax = mq[0], mq[1], mq[2]
	pq := analysis.Quantiles(peaks, 50, 99, 100)
	agg.PeakJunctionP50, agg.PeakJunctionP99, agg.PeakJunctionMax = pq[0], pq[1], pq[2]
	if o := occ.Sum(); o > 0 {
		agg.OverheadPct = 100 * injected.Sum() / o
	}
	if agg.WebMachines > 0 {
		agg.WebGoodMean = webGood.Sum() / float64(agg.WebMachines)
	} else {
		agg.WebGoodMin = 0
	}
	return agg
}

// String renders the fleet summary followed by the per-machine table —
// fixed-width and fully deterministic, so golden-trace and cross-parallelism
// tests can diff it byte-for-byte.
func (r *Result) String() string {
	var b strings.Builder
	s := r.Spec
	fmt.Fprintf(&b, "Scenario %s: %s\n", s.Name, s.Title)
	fmt.Fprintf(&b, "fleet of %d machines, %v per machine (%v warmup), policy %s, violation >= %.1fC\n",
		s.Fleet.Machines, r.Duration, r.Warmup, policyLabel(s.Policy), s.violationC())
	a := r.Fleet
	fmt.Fprintf(&b, "mean junction across fleet:  p50 %7.3fC  p90 %7.3fC  max %7.3fC\n",
		a.MeanJunctionP50, a.MeanJunctionP90, a.MeanJunctionMax)
	fmt.Fprintf(&b, "peak junction across fleet:  p50 %7.3fC  p99 %7.3fC  max %7.3fC\n",
		a.PeakJunctionP50, a.PeakJunctionP99, a.PeakJunctionMax)
	fmt.Fprintf(&b, "fleet work rate %.3f ref-s/s   total power %.1fW   injection overhead %.2f%% (%d quanta)\n",
		a.TotalWorkRate, a.TotalPower, a.OverheadPct, a.TotalInjection)
	fmt.Fprintf(&b, "thermal violations: %d excursions on %d/%d machines, %.1fs above threshold\n",
		a.TotalViolations, a.MachinesViol, len(r.Machines), a.ViolationS)
	if a.TM1Trips > 0 || a.TM1ThrottledS > 0 || s.Policy.TM1 {
		fmt.Fprintf(&b, "TM1 backstop: %d trips, %.1fs throttled fleet-wide\n", a.TM1Trips, a.TM1ThrottledS)
	}
	if a.WebMachines > 0 {
		fmt.Fprintf(&b, "web QoS: good %.1f%% mean / %.1f%% worst machine, %.1f req/s fleet throughput\n",
			100*a.WebGoodMean, 100*a.WebGoodMin, a.WebThroughput)
	}
	b.WriteString("\n machine      mean      peak    work/s   power    inj%   viol    tm1\n")
	for _, m := range r.Machines {
		fmt.Fprintf(&b, " %4d     %7.3fC  %7.3fC  %7.3f  %6.1fW  %5.2f  %5d  %5d\n",
			m.Index, m.MeanJunction, m.PeakJunction, m.WorkRate, m.MeanPower,
			100*m.OverheadFraction(), m.Violations, m.TM1Trips)
	}
	return b.String()
}

// Label renders the DTM policy for output headers ("dimetrodon[p=0.5
// L=25ms]+tm1"); the fleetsched engine reuses it so scheduled and
// unscheduled headers read alike.
func (p PolicySpec) Label() string { return policyLabel(p) }

// policyLabel renders the policy for headers.
func policyLabel(p PolicySpec) string {
	var label string
	switch p.Kind {
	case "", PolicyNone:
		label = "race-to-idle"
	case PolicyDimetrodon:
		label = fmt.Sprintf("dimetrodon[p=%g L=%gms]", p.P, p.LMS)
		if p.Deterministic {
			label = "det-" + label
		}
	case PolicyVFS:
		label = fmt.Sprintf("vfs[%d]", p.PState)
	case PolicyP4TCC:
		label = fmt.Sprintf("p4tcc[%.3f]", p.Duty)
	case PolicyAdaptive:
		if p.TargetC > 0 {
			label = fmt.Sprintf("adaptive[%.0fC]", p.TargetC)
		} else {
			label = "adaptive[auto]"
		}
	default:
		label = p.Kind
	}
	if p.TM1 {
		label += "+tm1"
	}
	return label
}
