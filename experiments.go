package dimetrodon

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/fleetsched"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/service"
)

// Scale controls experiment durations and trial counts; 1.0 reproduces the
// paper's full runs, smaller values shrink them proportionally (floors keep
// windows meaningful).
type Scale = experiments.Scale

// Canonical scales.
const (
	FullScale  = experiments.Full
	QuickScale = experiments.Quick
)

// Engine is the caller-owned engine value every run takes: which thermal
// integrator machines use (IntegratorExact, IntegratorLeap, or "" for the
// defaults — experiments exact, scenario and sched runs leap) and how many
// trials run at once (0 = GOMAXPROCS). Results are byte-identical at any
// Jobs: trials derive their seeds from their position in the sweep, never
// from a shared stream. cmd/dimctl builds one from -integrator and -jobs.
type Engine = engine.Config

// Integrator mode names, re-exported for CLI validation.
const (
	IntegratorExact = machine.IntegratorExact
	IntegratorLeap  = machine.IntegratorLeap
)

// MicroBench is one kernel micro-benchmark `dimctl bench` can run in smoke
// mode.
type MicroBench = bench.Micro

// MicroBenches returns the registered kernel micro-benchmarks.
func MicroBenches() []MicroBench { return bench.Micros() }

// RunMicroBench executes one registered micro-benchmark for iters
// iterations, returning its wall-clock duration.
func RunMicroBench(m MicroBench, iters int) (time.Duration, error) {
	start := time.Now()
	err := m.Run(iters)
	return time.Since(start), err
}

// Experiment is one reproducible artefact of the paper's evaluation.
type Experiment struct {
	ID      string
	Title   string
	Summary string
	// Run executes the harness under ec and writes the rendered result to w.
	Run func(w io.Writer, scale Scale, ec Engine) error
}

// printed adapts a harness to Experiment.Run: run it and print its result.
func printed[R fmt.Stringer](harness func(Scale, Engine) R) func(io.Writer, Scale, Engine) error {
	return func(w io.Writer, s Scale, ec Engine) error {
		_, err := fmt.Fprintln(w, harness(s, ec))
		return err
	}
}

// Experiments maps experiment IDs to harnesses — one per figure and table of
// the paper plus the ablation studies (see DESIGN.md §3 for the index).
var Experiments = map[string]Experiment{
	"fig1": {
		ID: "fig1", Title: "Figure 1: race-to-idle vs Dimetrodon power trace",
		Summary: "Package power while a 4-thread CPU-bound job runs, with and without injection.",
		Run:     printed(experiments.RunFigure1),
	},
	"val-throughput": {
		ID: "val-throughput", Title: "§3.3 throughput model validation",
		Summary: "Measured runtimes vs D(t)=R+S·p/(1−p)·L across the p×L grid.",
		Run:     printed(experiments.RunValidationThroughput),
	},
	"val-energy": {
		ID: "val-energy", Title: "§3.3 energy model validation",
		Summary: "Dimetrodon energy as % of race-to-idle over equal windows.",
		Run:     printed(experiments.RunValidationEnergy),
	},
	"fig2": {
		ID: "fig2", Title: "Figure 2: temperature rise over idle vs time",
		Summary: "cpuburn under p ∈ {0,.25,.5,.75}, L=100ms.",
		Run:     printed(experiments.RunFigure2),
	},
	"fig3": {
		ID: "fig3", Title: "Figure 3: efficiency vs idle quantum length",
		Summary: "Temperature:throughput efficiency across L ∈ [1,100]ms per p.",
		Run:     printed(experiments.RunFigure3),
	},
	"fig4": {
		ID: "fig4", Title: "Figure 4: technique comparison sweep",
		Summary: "Dimetrodon vs VFS vs p4tcc Pareto boundaries and power-law fit.",
		Run:     printed(experiments.RunFigure4),
	},
	"table1": {
		ID: "table1", Title: "Table 1: SPEC CPU2006 workload results",
		Summary: "Rise % of cpuburn and T(r)=α·r^β fits per workload.",
		Run:     printed(experiments.RunTable1),
	},
	"fig5": {
		ID: "fig5", Title: "Figure 5: global vs thread-specific control",
		Summary: "Cool-process throughput vs system temperature reduction.",
		Run:     printed(experiments.RunFigure5),
	},
	"fig6": {
		ID: "fig6", Title: "Figure 6: web workload QoS vs temperature",
		Summary: "SPECWeb-like closed loop; good/tolerable QoS boundaries.",
		Run:     printed(experiments.RunFigure6),
	},
	"abl-leakage": {
		ID: "abl-leakage", Title: "Ablation: leakage temperature coupling",
		Summary: "Trade-off curves with leakage frozen at its reference value.",
		Run:     printed(experiments.RunAblationLeakage),
	},
	"abl-cstate": {
		ID: "abl-cstate", Title: "Ablation: C1E vs halt-only injected idle",
		Summary: "Injected quanta at full-voltage halt instead of C1E.",
		Run:     printed(experiments.RunAblationCState),
	},
	"abl-deterministic": {
		ID: "abl-deterministic", Title: "Ablation: deterministic injection",
		Summary: "Error-accumulator injection vs the probabilistic model.",
		Run:     printed(experiments.RunAblationDeterministic),
	},
	"abl-hotspot": {
		ID: "abl-hotspot", Title: "Ablation: sensor placement (hotspot)",
		Summary: "Trade-off sensitivity to reading a fast hotspot node instead of the junction block.",
		Run:     printed(experiments.RunAblationHotspot),
	},
	"abl-kernel": {
		ID: "abl-kernel", Title: "Ablation: injecting kernel threads",
		Summary: "§3.1 policy decision — QoS cost of making the interrupt path injectable.",
		Run:     printed(experiments.RunAblationKernelThreads),
	},
	"ext-adaptive": {
		ID: "ext-adaptive", Title: "Extension: adaptive setpoint control",
		Summary: "Closed-loop online policy adjustment (§2.1) holding a junction target across load phases.",
		Run:     printed(experiments.RunAdaptiveControl),
	},
	"ext-smt": {
		ID: "ext-smt", Title: "Extension: SMT idle co-scheduling",
		Summary: "§3.2's deferred problem — gang-idling sibling contexts so the core reaches C1E.",
		Run:     printed(experiments.RunSMTCoScheduling),
	},
	"ext-ule": {
		ID: "ext-ule", Title: "Extension: scheduler generality (ULE)",
		Summary: "Footnote 2's claim — identical trade-offs under a ULE-style per-CPU-queue scheduler.",
		Run:     printed(experiments.RunULEComparison),
	},
	"ext-emergency": {
		ID: "ext-emergency", Title: "Extension: cooling failure vs reactive DTM",
		Summary: "§1's framing — preventive control keeps the PROCHOT/TM1 backstop dormant under a fan failure.",
		Run:     printed(experiments.RunEmergencyScenario),
	},
}

// ExperimentIDs returns the experiment identifiers in stable order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Experiments))
	for id := range Experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Export runs the identified experiment under ec and writes plot-ready CSV
// files into dir, returning the written paths. Every experiment ID in
// Experiments is exportable.
func Export(id string, scale Scale, dir string, ec Engine) ([]string, error) {
	return experiments.Export(id, scale, dir, ec)
}

// --- Scenario engine (beyond the paper's fixed evaluation) ---

// ScenarioSpec re-exports the scenario engine's declarative specification;
// see internal/scenario for the field reference and DESIGN.md §7 for the
// model.
type ScenarioSpec = scenario.Spec

// ScenarioResult is one executed fleet scenario.
type ScenarioResult = scenario.Result

// ScenarioNames returns the registered scenario names in stable order.
func ScenarioNames() []string { return scenario.Names() }

// LookupScenario returns the named registered scenario spec.
func LookupScenario(name string) (*ScenarioSpec, bool) { return scenario.Get(name) }

// RegisterScenario validates and adds a scenario to the registry.
func RegisterScenario(s *ScenarioSpec) error { return scenario.Register(s) }

// DecodeScenario parses and validates a JSON scenario spec.
func DecodeScenario(data []byte) (*ScenarioSpec, error) { return scenario.Decode(data) }

// RunScenario executes the named registered scenario's fleet across ec's
// worker pool and returns the aggregated result. Homogeneous machines share
// compiled propagator ladders, and provably seed-insensitive configurations
// simulate once per group. Output is byte-identical at any parallelism level.
func RunScenario(name string, scale Scale, ec Engine) (*ScenarioResult, error) {
	return scenario.RunByName(name, float64(scale), ec)
}

// RunScenarioSpec executes an ad-hoc (possibly unregistered) scenario spec.
func RunScenarioSpec(s *ScenarioSpec, scale Scale, ec Engine) (*ScenarioResult, error) {
	return scenario.RunOpts(s, float64(scale), scenario.RunOptions{Engine: ec})
}

// MegaScenarioResult is a tiled mega-fleet scenario run — the fleet summary
// without the per-machine materialisation.
type MegaScenarioResult = scenario.MegaResult

// RunMegaScenario executes the named registered scenario tiled out to the
// given fleet size (machine i replicates compiled trial i mod fleet), so a
// million-machine summary costs one base-fleet run plus an
// index-ordered aggregation pass. cmd/dimctl exposes it as `scenario mega`.
func RunMegaScenario(name string, machines int, scale Scale, ec Engine) (*MegaScenarioResult, error) {
	return scenario.RunMegaByName(name, machines, float64(scale), ec)
}

// ExportScenario runs the named scenario and writes its per-machine and
// fleet-aggregate CSVs into dir. Scheduled scenarios route through the
// fleetsched engine and additionally export the per-job ledger.
func ExportScenario(name string, scale Scale, dir string, ec Engine) ([]string, error) {
	if s, ok := scenario.Get(name); ok && s.Scheduler != nil {
		return fleetsched.Export(name, float64(scale), dir, ec)
	}
	return scenario.Export(name, float64(scale), dir, ec)
}

// --- Fleet scheduler (thermal-aware placement across the fleet) ---

// SchedResult is one scheduled scenario executed under one placement policy
// by the fleetsched cross-machine engine.
type SchedResult = fleetsched.Result

// SchedComparison is one scheduled scenario swept over every placement
// policy against identical arrival streams.
type SchedComparison = fleetsched.Comparison

// SchedPolicyNames returns the placement policies in canonical order.
func SchedPolicyNames() []string { return fleetsched.Names() }

// ValidSchedPolicy reports whether name is a known placement policy.
func ValidSchedPolicy(name string) bool { return scenario.ValidPlacementPolicy(name) }

// RunSchedScenario executes the named scheduled scenario under the given
// placement policy (empty selects the spec's default). Output is
// byte-identical at any -jobs setting.
func RunSchedScenario(name, policy string, scale Scale, ec Engine) (*SchedResult, error) {
	return fleetsched.RunByName(name, policy, float64(scale), ec)
}

// CompareSchedScenario sweeps the named scheduled scenario over every
// placement policy.
func CompareSchedScenario(name string, scale Scale, ec Engine) (*SchedComparison, error) {
	return fleetsched.CompareByName(name, float64(scale), ec)
}

// ExportSchedComparison writes the policy-comparison CSV into dir.
func ExportSchedComparison(c *SchedComparison, dir string) ([]string, error) {
	return fleetsched.ExportComparison(c, dir)
}

// ExportSchedResult writes one scheduled run's per-machine, fleet and
// per-job CSVs into dir.
func ExportSchedResult(r *SchedResult, dir string) ([]string, error) {
	return fleetsched.ExportResult(r, dir)
}

// ExportSchedScenario runs the named scheduled scenario under its default
// policy and writes its per-machine, fleet and per-job CSVs into dir.
func ExportSchedScenario(name string, scale Scale, dir string, ec Engine) ([]string, error) {
	return fleetsched.Export(name, float64(scale), dir, ec)
}

// --- Simulation-as-a-service (the dimd daemon core) ---

// ServiceConfig sizes the simulation service; see internal/service.Config.
type ServiceConfig = service.Config

// SimService is the daemon core behind cmd/dimd: job queue, worker pool,
// content-addressed result cache, telemetry streaming and the HTTP API.
type SimService = service.Service

// NewService builds a running simulation service with the full experiment
// table enabled alongside scenario and sched jobs. It panics if a durable
// config fails to open its data directory — use OpenService to handle that.
func NewService(cfg ServiceConfig) *SimService {
	cfg.Experiments = ServiceExperiments()
	return service.New(cfg)
}

// OpenService is NewService with durable-recovery error handling: when
// cfg.DataDir is set it replays the job journal, warms the result cache from
// persisted artifacts and re-enqueues interrupted jobs before returning.
func OpenService(cfg ServiceConfig) (*SimService, error) {
	cfg.Experiments = ServiceExperiments()
	return service.Open(cfg)
}

// ServiceExperiments adapts the experiment table for the service daemon:
// Run produces exactly the bytes `dimctl run` writes between its banners,
// Render exactly the files `dimctl export` writes.
func ServiceExperiments() service.ExperimentSource {
	return service.ExperimentSource{
		IDs: ExperimentIDs,
		Run: func(id string, scale float64, ec Engine) (string, error) {
			e, ok := Experiments[id]
			if !ok {
				return "", fmt.Errorf("unknown experiment %q", id)
			}
			var b strings.Builder
			if err := e.Run(&b, Scale(scale), ec); err != nil {
				return "", err
			}
			return b.String(), nil
		},
		Render: func(id string, scale float64, ec Engine) ([]export.File, error) {
			return experiments.Render(id, Scale(scale), ec)
		},
	}
}
