package dimetrodon

import (
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleetsched"
	"repro/internal/machine"
	"repro/internal/scenario"
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

// Experiment is one reproducible artefact of the paper's evaluation; its Run
// returns a Result whose String is the `dimctl run` report and whose Files
// are the `dimctl export` CSVs.
type Experiment = experiments.Experiment

// Experiments is the experiment table in ID order — one harness per figure
// and table of the paper plus the ablation studies (see DESIGN.md §3).
var Experiments = experiments.Table

// LookupExperiment returns the experiment with the given ID.
var LookupExperiment = experiments.Lookup

// ExperimentIDs returns the experiment identifiers in table (ID) order.
func ExperimentIDs() []string { return experiments.IDs() }

// Export runs the identified experiment under ec and writes plot-ready CSV
// files into dir, returning the written paths.
var Export = experiments.Export

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
