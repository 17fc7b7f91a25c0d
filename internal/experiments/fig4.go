package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/units"
)

// Figure4Result holds the wide-range technique comparison of Figure 4:
// scatter points for Dimetrodon, VFS and p4tcc in the (temperature
// reduction, throughput reduction) plane with the Pareto boundary per
// technique, plus the power-law fit of Dimetrodon's boundary.
type Figure4Result struct {
	Dimetrodon []analysis.TradeoffPoint
	VFS        []analysis.TradeoffPoint
	P4TCC      []analysis.TradeoffPoint

	DimPareto []analysis.TradeoffPoint
	VFSPareto []analysis.TradeoffPoint
	TCCPareto []analysis.TradeoffPoint

	// Fit is the cpuburn trade-off fit T(r) = α·r^β over the Dimetrodon
	// Pareto boundary for r ∈ [0, 0.75] (paper: α=1.092, β=1.541).
	Fit analysis.PowerLaw
	// CrossoverR estimates where VFS's boundary starts dominating
	// Dimetrodon's (paper: ≈30 % temperature reduction).
	CrossoverR float64
}

// Figure4Grid describes the parameter sweep.
type Figure4Grid struct {
	Ps  []float64
	Ls  []units.Time
	VFS int // number of non-nominal P-states to sweep (set from ladder)
	TCC []float64
}

// DefaultFigure4Grid returns the sweep used by the harness.
func DefaultFigure4Grid() Figure4Grid {
	g := Figure4Grid{
		Ps: []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9},
		// p4tcc duty levels: multiples of 1/8, excluding 1.0 (off).
		TCC: []float64{0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125},
	}
	for _, lms := range []float64{1, 5, 10, 25, 50, 100} {
		g.Ls = append(g.Ls, units.FromMilliseconds(lms))
	}
	return g
}

// RunFigure4 reproduces Figure 4: exhaustive static-policy sweeps of
// Dimetrodon, VFS and p4tcc under cpuburn.
func RunFigure4(scale Scale, ec engine.Config) Figure4Result {
	settle := scale.seconds(270)
	window := scale.seconds(30)
	grid := DefaultFigure4Grid()
	spawn := SpawnBurnPerCore(1.0)

	// Enumerate the sweep — Dimetrodon grid, then the VFS ladder, then the
	// TCC duty levels — assigning seeds in that submission order, exactly
	// as the sequential harness did.
	type f4Spec struct {
		tech dtm.Technique
		seed uint64
	}
	var specs []f4Spec
	seed := uint64(40000)
	for _, p := range grid.Ps {
		for _, l := range grid.Ls {
			seed++
			specs = append(specs, f4Spec{dtm.Dimetrodon{P: p, L: l}, seed})
		}
	}
	ladder := machine.New(machine.DefaultConfig()).Chip.PStateCount()
	for i := 1; i < ladder; i++ {
		seed++
		specs = append(specs, f4Spec{dtm.VFS{PState: i}, seed})
	}
	for _, d := range grid.TCC {
		seed++
		specs = append(specs, f4Spec{dtm.P4TCC{Duty: d}, seed})
	}

	trials := make([]SteadyTrial, 0, len(specs)+1)
	trials = append(trials, SteadyTrial{Cfg: machineConfig(ec), Tech: dtm.RaceToIdle{}, Spawn: spawn, Settle: settle, Window: window})
	for _, s := range specs {
		cfg := machineConfig(ec)
		cfg.Seed = s.seed
		trials = append(trials, SteadyTrial{Cfg: cfg, Tech: s.tech, Spawn: spawn, Settle: settle, Window: window})
	}
	results := RunSteadyAll(ec.Jobs, trials)
	base := results[0]

	var res Figure4Result
	nDim := len(grid.Ps) * len(grid.Ls)
	nVFS := ladder - 1
	for i, s := range specs {
		pt := Tradeoff(s.tech.Label(), base, results[i+1])
		switch {
		case i < nDim:
			res.Dimetrodon = append(res.Dimetrodon, pt)
		case i < nDim+nVFS:
			res.VFS = append(res.VFS, pt)
		default:
			res.P4TCC = append(res.P4TCC, pt)
		}
	}

	res.DimPareto = analysis.ParetoFrontier(res.Dimetrodon)
	res.VFSPareto = analysis.ParetoFrontier(res.VFS)
	res.TCCPareto = analysis.ParetoFrontier(res.P4TCC)
	if fit, ok := analysis.FitPowerLawUpTo(res.DimPareto, 0.75); ok {
		res.Fit = fit
	}
	res.CrossoverR = crossover(res.DimPareto, res.VFSPareto)
	return res
}

// crossover finds the smallest temperature reduction at which the VFS
// boundary achieves it more cheaply than the Dimetrodon boundary. Boundaries
// are compared by linear interpolation of performance cost over r.
func crossover(dim, vfs []analysis.TradeoffPoint) float64 {
	if len(dim) == 0 || len(vfs) == 0 {
		return 0
	}
	for r := 0.02; r <= 0.95; r += 0.01 {
		cd, okd := interpCost(dim, r)
		cv, okv := interpCost(vfs, r)
		if okd && okv && cv < cd {
			return r
		}
		if !okd && okv {
			// Dimetrodon can no longer reach this reduction at all.
			return r
		}
	}
	return 1
}

// interpCost interpolates the perf cost of achieving temperature reduction r
// along a Pareto boundary (sorted by increasing r). ok is false beyond the
// boundary's reach.
func interpCost(front []analysis.TradeoffPoint, r float64) (float64, bool) {
	if len(front) == 0 || r > front[len(front)-1].TempReduction {
		return 0, false
	}
	prev := analysis.TradeoffPoint{} // origin: no reduction, no cost
	for _, p := range front {
		if r <= p.TempReduction {
			span := p.TempReduction - prev.TempReduction
			if span <= 0 {
				return p.PerfReduction, true
			}
			frac := (r - prev.TempReduction) / span
			return prev.PerfReduction + frac*(p.PerfReduction-prev.PerfReduction), true
		}
		prev = p
	}
	return front[len(front)-1].PerfReduction, true
}

// String renders the scatter summary, boundaries and fit.
func (r Figure4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: wide-range parameter sweeps vs other techniques (cpuburn)\n\n")
	writePts := func(name string, pts []analysis.TradeoffPoint) {
		fmt.Fprintf(&b, "%s pareto boundary:\n", name)
		for _, p := range pts {
			eff := 0.0
			if p.PerfReduction > 0 {
				eff = p.TempReduction / p.PerfReduction
			}
			fmt.Fprintf(&b, "  r=%5.1f%%  T=%5.1f%%  eff=%5.2f  %s\n",
				100*p.TempReduction, 100*p.PerfReduction, eff, p.Label)
		}
	}
	writePts("dimetrodon", r.DimPareto)
	writePts("vfs", r.VFSPareto)
	writePts("p4tcc", r.TCCPareto)
	fmt.Fprintf(&b, "\ndimetrodon fit: %v (paper: T(r)=1.092*r^1.541)\n", r.Fit)
	fmt.Fprintf(&b, "VFS overtakes dimetrodon at r ≈ %.0f%% (paper: ≈30%%)\n", 100*r.CrossoverR)
	return b.String()
}

// Files renders each technique's sweep and Pareto boundary.
func (r Figure4Result) Files() []export.File {
	return []export.File{
		pointsCSV("fig4_dimetrodon.csv", r.Dimetrodon),
		pointsCSV("fig4_vfs.csv", r.VFS),
		pointsCSV("fig4_p4tcc.csv", r.P4TCC),
		pointsCSV("fig4_dimetrodon_pareto.csv", r.DimPareto),
		pointsCSV("fig4_vfs_pareto.csv", r.VFSPareto),
		pointsCSV("fig4_p4tcc_pareto.csv", r.TCCPareto),
	}
}
