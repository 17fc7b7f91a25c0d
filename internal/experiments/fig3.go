package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/units"
)

// Figure3Point is one (p, L) configuration's efficiency measurement.
type Figure3Point struct {
	P          float64
	L          units.Time
	TempRed    float64 // r
	PerfRed    float64 // T(r)
	Efficiency float64 // r / T(r), Figure 3's y-axis
}

// Figure3Result holds the efficiency-versus-quantum-length sweep of
// Figure 3: curves over L for each idle proportion p.
type Figure3Result struct {
	Ls     []units.Time
	Ps     []float64
	Points []Figure3Point // row-major: for each p, each L
}

// Point returns the measurement for (pIdx, lIdx).
func (r Figure3Result) Point(pIdx, lIdx int) Figure3Point {
	return r.Points[pIdx*len(r.Ls)+lIdx]
}

// RunFigure3 reproduces Figure 3: cpuburn under idle proportions
// p ∈ {.1,.25,.5,.75} across quantum lengths from 1 to 100 ms; efficiency is
// the ratio of temperature reduction to throughput reduction. Short quanta
// are the most efficient, with diminishing marginal benefit as L grows.
func RunFigure3(scale Scale, ec engine.Config) Figure3Result {
	settle := scale.seconds(270)
	window := scale.seconds(30)
	res := Figure3Result{
		Ps: []float64{0.1, 0.25, 0.5, 0.75},
	}
	for _, lms := range []float64{1, 2, 5, 10, 25, 50, 75, 100} {
		res.Ls = append(res.Ls, units.FromMilliseconds(lms))
	}
	spawn := SpawnBurnPerCore(1.0)
	// Trial 0 is the unconstrained baseline; the rest are the p×L grid in
	// row-major order with seeds derived from the grid coordinates.
	trials := []SteadyTrial{{Cfg: machineConfig(ec), Tech: dtm.RaceToIdle{}, Spawn: spawn, Settle: settle, Window: window}}
	for _, p := range res.Ps {
		for _, l := range res.Ls {
			cfg := machineConfig(ec)
			cfg.Seed = uint64(p*1000) + uint64(l/units.Millisecond)
			trials = append(trials, SteadyTrial{Cfg: cfg, Tech: dtm.Dimetrodon{P: p, L: l}, Spawn: spawn, Settle: settle, Window: window})
		}
	}
	results := RunSteadyAll(ec.Jobs, trials)
	base := results[0]
	i := 1
	for _, p := range res.Ps {
		for _, l := range res.Ls {
			pt := Tradeoff(fmt.Sprintf("p=%g L=%v", p, l), base, results[i])
			i++
			eff := 0.0
			if pt.PerfReduction > 0 {
				eff = pt.TempReduction / pt.PerfReduction
			}
			res.Points = append(res.Points, Figure3Point{
				P: p, L: l,
				TempRed: pt.TempReduction, PerfRed: pt.PerfReduction,
				Efficiency: eff,
			})
		}
	}
	return res
}

// String renders the efficiency table, one row per quantum length.
func (r Figure3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3: Dimetrodon efficiency (temp reduction : throughput reduction) vs quantum length\n")
	b.WriteString("   L    ")
	for _, p := range r.Ps {
		fmt.Fprintf(&b, "   p=%-5.2f", p)
	}
	b.WriteString("\n")
	for li, l := range r.Ls {
		fmt.Fprintf(&b, " %-6v ", l)
		for pi := range r.Ps {
			fmt.Fprintf(&b, "  %7.2f ", r.Point(pi, li).Efficiency)
		}
		b.WriteString("\n")
	}
	b.WriteString("(paper: short idle quanta are particularly efficient; diminishing\n")
	b.WriteString(" marginal returns for longer quanta lengths)\n")
	return b.String()
}

// Files renders the efficiency surface.
func (r Figure3Result) Files() []export.File {
	var b strings.Builder
	b.WriteString("p,L_ms,temp_reduction,perf_reduction,efficiency\n")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%g,%g,%.6f,%.6f,%.4f\n",
			pt.P, pt.L.Milliseconds(), pt.TempRed, pt.PerfRed, pt.Efficiency)
	}
	return []export.File{{Name: "fig3_efficiency.csv", Content: b.String()}}
}
