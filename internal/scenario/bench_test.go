package scenario

import (
	"fmt"
	"testing"

	"repro/internal/thermal"
)

// benchScenario runs the 24-machine fleet-diurnal scenario end to end under
// the given integrator; one iteration is a whole fleet run across the
// runner pool.
func benchScenario(b *testing.B, integrator string) {
	b.Helper()
	const benchScale = 0.15
	spec, ok := Get("fleet-diurnal")
	if !ok {
		b.Fatal("fleet-diurnal missing from the library")
	}
	pinned := *spec
	pinned.Machine.Integrator = integrator
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(&pinned, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && testing.Verbose() {
			fmt.Printf("\n==== scenario fleet-diurnal [%s] @ scale %v ====\n%s", integrator, benchScale, res)
		}
	}
}

// BenchmarkFleetScenario measures the fleet engine under both integrators:
// "leap" is the engine default (the quiescence-leaping propagator), "exact"
// the byte-identical step-by-step kernel kept for comparison.
// scripts/bench.sh records both in BENCH_results.json so the leap speedup is
// tracked alongside the exact baseline.
func BenchmarkFleetScenario(b *testing.B) {
	b.Run("integrator=leap", func(b *testing.B) { benchScenario(b, "leap") })
	b.Run("integrator=exact", func(b *testing.B) { benchScenario(b, "exact") })
}

// BenchmarkFleetColdJob runs one dimbench fleet-cold job per iteration: the
// 1024-machine fleet-diurnal fleet spread over aisles 6 °C apart, at scale
// 0.05, with the telemetry and machine hooks set as dimd sets them and one
// propagator store shared across jobs as dimd shares it. Run it with
// -benchmem: B/op is the allocation per cold job.
func BenchmarkFleetColdJob(b *testing.B) {
	spec, ok := Get("fleet-diurnal")
	if !ok {
		b.Fatal("fleet-diurnal missing from the library")
	}
	job := spec.Clone()
	job.Name = "bench-fleet-cold"
	job.Fleet = FleetSpec{Machines: 1024, BaseSeed: 1 << 24, AmbientSpreadC: 6}
	opts := RunOptions{
		PropStore:      thermal.NewPropStore(),
		TelemetryEvery: 50,
		OnTelemetry:    func(MachineSample) {},
		OnMachine:      func(MachineResult) {},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunOpts(job, 0.05, opts); err != nil {
			b.Fatal(err)
		}
	}
}
