package dimetrodon

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§3), one testing.B benchmark per artefact, plus the ablation
// studies DESIGN.md calls out. Each iteration performs a full (scaled)
// reproduction run; the rendered result of the final iteration is printed so
// `go test -bench=.` leaves the measured rows in the log.
//
// Run the paper-duration versions via `go run ./cmd/dimctl run all`; the
// benchmarks default to BenchScale (override the output-free timing behaviour
// by inspecting bench_output.txt).

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// BenchScale keeps a single benchmark iteration in the hundreds of
// milliseconds while preserving every qualitative shape.
const BenchScale = experiments.Scale(0.15)

// benchRun drives one experiment harness as a benchmark body under the
// default engine and prints the last iteration's rendered result.
func benchRun(b *testing.B, id string) { benchRunEngine(b, id, Engine{}) }

// benchRunEngine is benchRun under an explicit engine.
func benchRunEngine(b *testing.B, id string, ec Engine) {
	b.Helper()
	e, ok := LookupExperiment(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		res := e.Run(BenchScale, ec)
		if i == b.N-1 {
			fmt.Printf("\n==== %s (%s) @ scale %v ====\n", e.ID, e.Title, float64(BenchScale))
			fmt.Println(res)
		}
	}
}

// BenchmarkFigure1PowerTrace regenerates Figure 1: race-to-idle versus
// Dimetrodon package power while a multi-threaded CPU-bound job runs.
func BenchmarkFigure1PowerTrace(b *testing.B) { benchRun(b, "fig1") }

// BenchmarkValidationThroughput regenerates §3.3's throughput model
// validation grid (measured runtime vs D(t) = R + S·p/(1−p)·L).
func BenchmarkValidationThroughput(b *testing.B) { benchRun(b, "val-throughput") }

// BenchmarkValidationEnergy regenerates §3.3's energy validation: Dimetrodon
// versus race-to-idle energy over equal windows, as the clamp measures it.
func BenchmarkValidationEnergy(b *testing.B) { benchRun(b, "val-energy") }

// BenchmarkFigure2TemperatureTrace regenerates Figure 2: core temperature
// rise over idle through a cpuburn run for p ∈ {0,.25,.5,.75}.
func BenchmarkFigure2TemperatureTrace(b *testing.B) { benchRun(b, "fig2") }

// BenchmarkFigure3Efficiency regenerates Figure 3: the temperature:throughput
// efficiency across idle quantum lengths and proportions.
func BenchmarkFigure3Efficiency(b *testing.B) { benchRun(b, "fig3") }

// BenchmarkFigure4TechniqueComparison regenerates Figure 4: the wide-range
// sweep of Dimetrodon against VFS and p4tcc with Pareto boundaries and the
// T(r) = α·r^β fit.
func BenchmarkFigure4TechniqueComparison(b *testing.B) { benchRun(b, "fig4") }

// BenchmarkTable1SPECWorkloads regenerates Table 1: per-workload temperature
// rises and trade-off fits for the SPEC CPU2006 proxies.
func BenchmarkTable1SPECWorkloads(b *testing.B) { benchRun(b, "table1") }

// BenchmarkTable1SPECWorkloadsLeap is Table 1 under the leap integrator
// (-integrator leap): the experiment harnesses' steady windows are long
// quiescent spans, so this tracks the leap speedup on the paper workloads
// next to the exact-mode baseline above.
func BenchmarkTable1SPECWorkloadsLeap(b *testing.B) {
	benchRunEngine(b, "table1", Engine{Integrator: IntegratorLeap})
}

// BenchmarkFigure5PerThreadControl regenerates Figure 5: global versus
// thread-specific control of a hot/cool workload mix.
func BenchmarkFigure5PerThreadControl(b *testing.B) { benchRun(b, "fig5") }

// BenchmarkFigure6WebQoS regenerates Figure 6: QoS versus temperature
// reduction for the SPECWeb-like latency-sensitive workload.
func BenchmarkFigure6WebQoS(b *testing.B) { benchRun(b, "fig6") }

// BenchmarkAblationLeakage measures the leakage-coupling ablation: how much
// of the trade-off shape the exponential temperature dependence contributes.
func BenchmarkAblationLeakage(b *testing.B) { benchRun(b, "abl-leakage") }

// BenchmarkAblationCState measures C1E versus full-voltage-halt injected
// idle (§2.1's nop-loop observation).
func BenchmarkAblationCState(b *testing.B) { benchRun(b, "abl-cstate") }

// BenchmarkAblationDeterministic measures probabilistic versus deterministic
// injection (§3.4's smoother-curves hypothesis).
func BenchmarkAblationDeterministic(b *testing.B) { benchRun(b, "abl-deterministic") }

// BenchmarkAblationHotspot measures the sensor-placement sensitivity study:
// trade-offs read from a fast hotspot node versus the junction block.
func BenchmarkAblationHotspot(b *testing.B) { benchRun(b, "abl-hotspot") }

// BenchmarkAblationKernelThreads measures the §3.1 policy decision of never
// injecting kernel-level threads, on the web workload.
func BenchmarkAblationKernelThreads(b *testing.B) { benchRun(b, "abl-kernel") }

// BenchmarkExtensionAdaptive measures the closed-loop setpoint controller
// (§2.1's online policy adjustment) across its three load phases.
func BenchmarkExtensionAdaptive(b *testing.B) { benchRun(b, "ext-adaptive") }

// BenchmarkExtensionSMT measures SMT idle co-scheduling (§3.2's deferred
// problem): naive per-context injection versus sibling gang-idling.
func BenchmarkExtensionSMT(b *testing.B) { benchRun(b, "ext-smt") }

// BenchmarkExtensionULE measures the scheduler-generality study (footnote
// 2): identical injection trade-offs under a ULE-style per-CPU organisation.
func BenchmarkExtensionULE(b *testing.B) { benchRun(b, "ext-ule") }

// BenchmarkExtensionEmergency measures the cooling-failure study: reactive
// TM1 alone versus preventive control with the backstop armed.
func BenchmarkExtensionEmergency(b *testing.B) { benchRun(b, "ext-emergency") }

// BenchmarkSimulatorSteadySecond measures raw simulator throughput: one
// virtual second of the four-core cpuburn steady state, including thermal
// integration, scheduling and energy accounting. This is the kernel
// underneath every harness above.
func BenchmarkSimulatorSteadySecond(b *testing.B) {
	tb := NewTestbed(TestbedConfig{Seed: 1})
	if err := tb.InstallGlobalPolicy(Policy{P: 0.5, L: 10 * Millisecond}); err != nil {
		b.Fatal(err)
	}
	tb.SpawnBurn("burn", 4)
	tb.Run(2 * Second) // settle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Run(Second)
	}
}
