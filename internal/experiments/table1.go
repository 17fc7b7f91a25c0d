package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/units"
	"repro/internal/workload"
)

// Table1Row is one workload's thermal profile and trade-off fit, mirroring
// the paper's Table 1.
type Table1Row struct {
	Workload string
	// RisePct is the unconstrained temperature rise over idle as a
	// percentage of cpuburn's rise.
	RisePct      float64
	PaperRisePct float64
	// Fit is T(r) = α·r^β over the Pareto boundary for r ∈ [0, 0.5].
	Fit        analysis.PowerLaw
	PaperAlpha float64
	PaperBeta  float64
	// Points is the full sweep scatter for this workload.
	Points []analysis.TradeoffPoint
}

// Table1Result holds all rows.
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 reproduces Table 1: the six SPEC CPU2006 proxies (plus cpuburn as
// the reference) are run unconstrained to establish their thermal profiles,
// then swept across idle quantum lengths and probabilities to fit each
// workload's throughput-reduction model.
func RunTable1(scale Scale, ec engine.Config) Table1Result {
	settle := scale.seconds(270)
	window := scale.seconds(30)
	ps := []float64{0.1, 0.25, 0.5, 0.75}
	ls := []units.Time{
		5 * units.Millisecond, 25 * units.Millisecond,
		50 * units.Millisecond, 100 * units.Millisecond,
	}

	specs := append([]workload.Spec{workload.CPUBurnRef}, workload.SpecSuite...)

	// One trial list covers the whole table: an unconstrained baseline per
	// workload (cpuburn's doubles as the rise reference) followed by the
	// workload-major p×L policy grid with the sequential seed assignment.
	gridN := len(ps) * len(ls)
	trials := make([]SteadyTrial, 0, len(specs)*(1+gridN))
	for _, sp := range specs {
		trials = append(trials, SteadyTrial{Cfg: machineConfig(ec), Tech: dtm.RaceToIdle{}, Spawn: SpawnBurnPerCore(sp.PowerFactor), Settle: settle, Window: window})
	}
	seed := uint64(70000)
	for _, sp := range specs {
		for _, p := range ps {
			for _, l := range ls {
				seed++
				cfg := machineConfig(ec)
				cfg.Seed = seed
				trials = append(trials, SteadyTrial{Cfg: cfg, Tech: dtm.Dimetrodon{P: p, L: l}, Spawn: SpawnBurnPerCore(sp.PowerFactor), Settle: settle, Window: window})
			}
		}
	}
	results := RunSteadyAll(ec.Jobs, trials)
	bases := results[:len(specs)]
	policies := results[len(specs):]
	burnBase := bases[0]
	burnRise := float64(burnBase.MeanJunction - burnBase.IdleTemp)

	var res Table1Result
	for wi, sp := range specs {
		base := bases[wi]
		rise := float64(base.MeanJunction - base.IdleTemp)
		row := Table1Row{
			Workload:     sp.Name,
			RisePct:      100 * rise / burnRise,
			PaperRisePct: sp.PaperRisePct,
			PaperAlpha:   sp.PaperAlpha,
			PaperBeta:    sp.PaperBeta,
		}
		gi := wi * gridN
		for _, p := range ps {
			for _, l := range ls {
				row.Points = append(row.Points, Tradeoff(fmt.Sprintf("p=%g L=%v", p, l), base, policies[gi]))
				gi++
			}
		}
		pareto := analysis.ParetoFrontier(row.Points)
		if fit, ok := analysis.FitPowerLawUpTo(pareto, 0.5); ok {
			row.Fit = fit
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String renders the table side by side with the paper's values.
func (r Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: real workload results (measured vs paper)\n")
	b.WriteString(" workload    rise%  (paper)    α      (paper)    β      (paper)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %-10s %6.1f  (%5.1f)   %6.3f (%5.3f)   %6.3f (%5.3f)\n",
			row.Workload, row.RisePct, row.PaperRisePct,
			row.Fit.Alpha, row.PaperAlpha, row.Fit.Beta, row.PaperBeta)
	}
	return b.String()
}

// Files renders the workload table.
func (r Table1Result) Files() []export.File {
	var b strings.Builder
	b.WriteString("workload,rise_pct,paper_rise_pct,alpha,paper_alpha,beta,paper_beta,fit_r2\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%.2f,%.1f,%.4f,%.3f,%.4f,%.3f,%.4f\n",
			row.Workload, row.RisePct, row.PaperRisePct,
			row.Fit.Alpha, row.PaperAlpha, row.Fit.Beta, row.PaperBeta, row.Fit.R2)
	}
	return []export.File{{Name: "table1_workloads.csv", Content: b.String()}}
}
