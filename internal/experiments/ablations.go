package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/units"
)

// AblationPoint is one configuration measured under two model variants.
type AblationPoint struct {
	Label    string
	Baseline Figure3Point // standard model
	Variant  Figure3Point // ablated model
}

// AblationResult bundles an ablation study's points.
type AblationResult struct {
	Name        string
	Description string
	Points      []AblationPoint
}

// abSweep runs a small p×L grid under two machine variants.
func abSweep(name, desc string, scale Scale, ec engine.Config, mutate func(*machine.Machine), mutateCfg func(*machine.Config)) AblationResult {
	settle := scale.seconds(180)
	window := scale.seconds(30)
	res := AblationResult{Name: name, Description: desc}
	grid := []struct {
		p float64
		l units.Time
	}{
		{0.25, 1 * units.Millisecond},
		{0.25, 10 * units.Millisecond},
		{0.25, 100 * units.Millisecond},
		{0.75, 10 * units.Millisecond},
		{0.75, 100 * units.Millisecond},
	}
	measure := func(p float64, l units.Time, variant bool, seed uint64) Figure3Point {
		mk := func(tech dtm.Technique, s uint64) SteadyResult {
			cfg := machineConfig(ec)
			cfg.Meter.Disabled = true
			cfg.Seed = s
			if variant && mutateCfg != nil {
				mutateCfg(&cfg)
			}
			m := machine.New(cfg)
			if variant && mutate != nil {
				mutate(m)
				// Re-derive the idle baseline under the mutation.
			}
			if err := tech.Apply(m); err != nil {
				panic(err)
			}
			SpawnBurnPerCore(1.0)(m)
			m.RunFor(settle)
			i0 := m.MeanJunctionIntegral()
			w0 := m.TotalWorkDone()
			t0 := m.Now()
			m.RunFor(window)
			i1 := m.MeanJunctionIntegral()
			w1 := m.TotalWorkDone()
			t1 := m.Now()
			secs := (t1 - t0).Seconds()
			return SteadyResult{
				MeanJunction: units.Celsius((i1 - i0) / secs),
				WorkRate:     (w1 - w0) / secs,
				IdleTemp:     m.IdleJunctionTemp(),
			}
		}
		base := mk(dtm.RaceToIdle{}, seed)
		pol := mk(dtm.Dimetrodon{P: p, L: l}, seed+1)
		pt := Tradeoff("", base, pol)
		eff := 0.0
		if pt.PerfReduction > 0 {
			eff = pt.TempReduction / pt.PerfReduction
		}
		return Figure3Point{P: p, L: l, TempRed: pt.TempReduction, PerfRed: pt.PerfReduction, Efficiency: eff}
	}
	// Two measures per grid point (baseline model, ablated model), each a
	// self-contained pair of simulations keyed by its own seeds.
	type abSpec struct {
		p       float64
		l       units.Time
		variant bool
		seed    uint64
	}
	var specs []abSpec
	seed := uint64(90000)
	for _, g := range grid {
		seed += 10
		specs = append(specs,
			abSpec{g.p, g.l, false, seed},
			abSpec{g.p, g.l, true, seed + 5})
	}
	points := runner.Map(ec.Jobs, specs, func(_ int, s abSpec) Figure3Point {
		return measure(s.p, s.l, s.variant, s.seed)
	})
	for i, g := range grid {
		res.Points = append(res.Points, AblationPoint{
			Label:    fmt.Sprintf("p=%g L=%v", g.p, g.l),
			Baseline: points[2*i],
			Variant:  points[2*i+1],
		})
	}
	return res
}

// RunAblationLeakage quantifies how much of the trade-off curve's shape comes
// from the exponential temperature dependence of leakage: the variant
// freezes leakage at its reference value (LeakageTempCoupling = 0). Without
// the coupling the curve collapses toward a flat, duty-proportional 1:1-ish
// trade-off — demonstrating the mechanism DESIGN.md calls out.
func RunAblationLeakage(scale Scale, ec engine.Config) AblationResult {
	return abSweep("leakage",
		"temperature-dependent leakage on (baseline) vs frozen (variant)",
		scale, ec,
		func(m *machine.Machine) { m.Chip.LeakageTempCoupling = 0 },
		nil)
}

// RunAblationCState compares injected idle quanta reaching C1E (voltage
// dropped) against a plain halt at full voltage — the paper's observation
// that Dimetrodon remains useful on processors without low-power idle states
// (§2.1), at reduced benefit.
func RunAblationCState(scale Scale, ec engine.Config) AblationResult {
	return abSweep("cstate",
		"injected quanta enter C1E (baseline) vs full-voltage halt (variant)",
		scale, ec,
		nil,
		func(cfg *machine.Config) { cfg.InjectedIdle = cpu.C1Halt })
}

// RunAblationHotspot is the sensor-placement sensitivity study: the variant
// adds a fast per-core hotspot node (the functional-unit thermal mass of
// §2.1's nop-loop observation) concentrating 35 % of core power, and points
// the sensors and metrics at it — the physical placement of a real DTS. The
// orderings of the trade-off curves should not depend on the placement; the
// absolute operating point shifts a few degrees hotter.
func RunAblationHotspot(scale Scale, ec engine.Config) AblationResult {
	return abSweep("hotspot",
		"metrics at the junction block (baseline) vs a fast hotspot node (variant)",
		scale, ec,
		nil,
		func(cfg *machine.Config) {
			cfg.HotspotFraction = 0.35
			cfg.SenseHotspot = true
		})
}

// RunAblationDeterministic compares probabilistic injection against the
// deterministic error-accumulator variant the paper hypothesises would
// produce "smoother curves but similar overall temperature trends" (§3.4).
func RunAblationDeterministic(scale Scale, ec engine.Config) AblationResult {
	settle := scale.seconds(180)
	window := scale.seconds(30)
	res := AblationResult{
		Name:        "deterministic",
		Description: "probabilistic injection (baseline) vs deterministic accumulator (variant)",
	}
	grid := []struct {
		p float64
		l units.Time
	}{{0.25, 100 * units.Millisecond}, {0.5, 100 * units.Millisecond}, {0.75, 100 * units.Millisecond}}

	// Trial 0 is the shared race-to-idle baseline; then a probabilistic and
	// a deterministic run per grid point.
	spawn := SpawnBurnPerCore(1.0)
	trials := []SteadyTrial{{Cfg: machineConfig(ec), Tech: dtm.RaceToIdle{}, Spawn: spawn, Settle: settle, Window: window}}
	for _, g := range grid {
		for di, det := range []bool{false, true} {
			cfg := machineConfig(ec)
			cfg.Seed = uint64(91000+1000*di) + uint64(g.p*100)
			trials = append(trials, SteadyTrial{Cfg: cfg, Tech: dtm.Dimetrodon{P: g.p, L: g.l, Deterministic: det}, Spawn: spawn, Settle: settle, Window: window})
		}
	}
	results := RunSteadyAll(ec.Jobs, trials)
	base := results[0]
	toPoint := func(g struct {
		p float64
		l units.Time
	}, r SteadyResult) Figure3Point {
		pt := Tradeoff("", base, r)
		eff := 0.0
		if pt.PerfReduction > 0 {
			eff = pt.TempReduction / pt.PerfReduction
		}
		return Figure3Point{P: g.p, L: g.l, TempRed: pt.TempReduction, PerfRed: pt.PerfReduction, Efficiency: eff}
	}
	for i, g := range grid {
		res.Points = append(res.Points, AblationPoint{
			Label:    fmt.Sprintf("p=%g L=%v", g.p, g.l),
			Baseline: toPoint(g, results[1+2*i]),
			Variant:  toPoint(g, results[2+2*i]),
		})
	}
	return res
}

// String renders the comparison.
func (r AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation %q: %s\n", r.Name, r.Description)
	b.WriteString(" config            baseline r/T/eff        variant r/T/eff\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, " %-16s  %5.3f/%5.3f/%5.2f      %5.3f/%5.3f/%5.2f\n",
			p.Label,
			p.Baseline.TempRed, p.Baseline.PerfRed, p.Baseline.Efficiency,
			p.Variant.TempRed, p.Variant.PerfRed, p.Variant.Efficiency)
	}
	return b.String()
}

// Files renders the comparison as abl_<name>.csv, the file name of the
// experiment ID abl-<name>.
func (r AblationResult) Files() []export.File {
	var b strings.Builder
	b.WriteString("label,base_r,base_T,base_eff,variant_r,variant_T,variant_eff\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%q,%.6f,%.6f,%.4f,%.6f,%.6f,%.4f\n", p.Label,
			p.Baseline.TempRed, p.Baseline.PerfRed, p.Baseline.Efficiency,
			p.Variant.TempRed, p.Variant.PerfRed, p.Variant.Efficiency)
	}
	return []export.File{{Name: "abl_" + r.Name + ".csv", Content: b.String()}}
}
