package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/export"
)

// Result is one harness's outcome. String is the report `dimctl run` prints;
// Files are the plot-ready CSVs `dimctl export` writes. A daemon experiment
// job serves both from a single run.
type Result interface {
	fmt.Stringer
	Files() []export.File
}

// Experiment is one reproducible artefact of the paper's evaluation.
type Experiment struct {
	ID      string
	Title   string
	Summary string
	// Run executes the harness under ec.
	Run func(scale Scale, ec engine.Config) Result
}

// harness adapts a typed harness to Experiment.Run.
func harness[R Result](run func(Scale, engine.Config) R) func(Scale, engine.Config) Result {
	return func(s Scale, ec engine.Config) Result { return run(s, ec) }
}

// Table is every experiment in ID order — one per figure and table of the
// paper plus the validations, ablations and extensions (DESIGN.md §3). It is
// the only list of them: dimctl run, dimctl export and the daemon all read it.
var Table = []Experiment{
	{
		ID: "abl-cstate", Title: "Ablation: C1E vs halt-only injected idle",
		Summary: "Injected quanta at full-voltage halt instead of C1E.",
		Run:     harness(RunAblationCState),
	},
	{
		ID: "abl-deterministic", Title: "Ablation: deterministic injection",
		Summary: "Error-accumulator injection vs the probabilistic model.",
		Run:     harness(RunAblationDeterministic),
	},
	{
		ID: "abl-hotspot", Title: "Ablation: sensor placement (hotspot)",
		Summary: "Trade-off sensitivity to reading a fast hotspot node instead of the junction block.",
		Run:     harness(RunAblationHotspot),
	},
	{
		ID: "abl-kernel", Title: "Ablation: injecting kernel threads",
		Summary: "§3.1 policy decision — QoS cost of making the interrupt path injectable.",
		Run:     harness(RunAblationKernelThreads),
	},
	{
		ID: "abl-leakage", Title: "Ablation: leakage temperature coupling",
		Summary: "Trade-off curves with leakage frozen at its reference value.",
		Run:     harness(RunAblationLeakage),
	},
	{
		ID: "ext-adaptive", Title: "Extension: adaptive setpoint control",
		Summary: "Closed-loop online policy adjustment (§2.1) holding a junction target across load phases.",
		Run:     harness(RunAdaptiveControl),
	},
	{
		ID: "ext-emergency", Title: "Extension: cooling failure vs reactive DTM",
		Summary: "§1's framing — preventive control keeps the PROCHOT/TM1 backstop dormant under a fan failure.",
		Run:     harness(RunEmergencyScenario),
	},
	{
		ID: "ext-smt", Title: "Extension: SMT idle co-scheduling",
		Summary: "§3.2's deferred problem — gang-idling sibling contexts so the core reaches C1E.",
		Run:     harness(RunSMTCoScheduling),
	},
	{
		ID: "ext-ule", Title: "Extension: scheduler generality (ULE)",
		Summary: "Footnote 2's claim — identical trade-offs under a ULE-style per-CPU-queue scheduler.",
		Run:     harness(RunULEComparison),
	},
	{
		ID: "fig1", Title: "Figure 1: race-to-idle vs Dimetrodon power trace",
		Summary: "Package power while a 4-thread CPU-bound job runs, with and without injection.",
		Run:     harness(RunFigure1),
	},
	{
		ID: "fig2", Title: "Figure 2: temperature rise over idle vs time",
		Summary: "cpuburn under p ∈ {0,.25,.5,.75}, L=100ms.",
		Run:     harness(RunFigure2),
	},
	{
		ID: "fig3", Title: "Figure 3: efficiency vs idle quantum length",
		Summary: "Temperature:throughput efficiency across L ∈ [1,100]ms per p.",
		Run:     harness(RunFigure3),
	},
	{
		ID: "fig4", Title: "Figure 4: technique comparison sweep",
		Summary: "Dimetrodon vs VFS vs p4tcc Pareto boundaries and power-law fit.",
		Run:     harness(RunFigure4),
	},
	{
		ID: "fig5", Title: "Figure 5: global vs thread-specific control",
		Summary: "Cool-process throughput vs system temperature reduction.",
		Run:     harness(RunFigure5),
	},
	{
		ID: "fig6", Title: "Figure 6: web workload QoS vs temperature",
		Summary: "SPECWeb-like closed loop; good/tolerable QoS boundaries.",
		Run:     harness(RunFigure6),
	},
	{
		ID: "table1", Title: "Table 1: SPEC CPU2006 workload results",
		Summary: "Rise % of cpuburn and T(r)=α·r^β fits per workload.",
		Run:     harness(RunTable1),
	},
	{
		ID: "val-energy", Title: "§3.3 energy model validation",
		Summary: "Dimetrodon energy as % of race-to-idle over equal windows.",
		Run:     harness(RunValidationEnergy),
	},
	{
		ID: "val-throughput", Title: "§3.3 throughput model validation",
		Summary: "Measured runtimes vs D(t)=R+S·p/(1−p)·L across the p×L grid.",
		Run:     harness(RunValidationThroughput),
	},
}

// IDs returns the experiment identifiers in table order.
func IDs() []string {
	ids := make([]string, len(Table))
	for i, e := range Table {
		ids[i] = e.ID
	}
	return ids
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Table {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Export runs the identified experiment under ec and writes its CSV files
// into dir (created if needed), returning the paths written.
func Export(id string, scale Scale, dir string, ec engine.Config) ([]string, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return export.Write(dir, e.Run(scale, ec).Files()...)
}
