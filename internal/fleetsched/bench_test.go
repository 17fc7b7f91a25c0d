package fleetsched

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// benchSched runs one whole scheduled-scenario round loop (the acceptance
// scenario at golden scale, default policy) under the given integrator.
func benchSched(b *testing.B, integrator string) {
	b.Helper()
	spec, ok := scenario.Get("sched-shootout")
	if !ok {
		b.Fatal("sched-shootout missing from the library")
	}
	pinned := *spec
	pinned.Machine.Integrator = integrator
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(&pinned, "", 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSched measures the scheduled fleet under both integrators —
// the round-loop barrier overhead plus the fleet simulation. "leap" is the
// engine default; "exact" is kept for comparison. scripts/bench.sh records
// both in BENCH_results.json.
func BenchmarkFleetSched(b *testing.B) {
	b.Run("integrator=leap", func(b *testing.B) { benchSched(b, "leap") })
	b.Run("integrator=exact", func(b *testing.B) { benchSched(b, "exact") })
}

// BenchmarkFleetSchedCompare measures the full six-policy sweep — what
// `dimctl sched compare` costs.
func BenchmarkFleetSchedCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CompareByName("sched-shootout", 0.05, engine.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
