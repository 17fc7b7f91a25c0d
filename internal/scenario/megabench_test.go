package scenario

import (
	"testing"

	"repro/internal/engine"
)

// BenchmarkMegaFleet measures the mega path against the independent
// build-and-measure reference on the same spec. The batched side runs
// fleet-diurnal tiled to 100k machines (24 distinct simulations with shared
// ladders); the per-machine side runs the 24 machines
// through the reference, each building its own ladders. Both report
// ns/machine — per fleet member summarised, the unit the mega path is built
// to amortise. scripts/bench.sh records both in BENCH_results.json.
func BenchmarkMegaFleet(b *testing.B) {
	const megaScale = 0.05
	spec, ok := Get("fleet-diurnal")
	if !ok {
		b.Fatal("fleet-diurnal missing from the library")
	}

	b.Run("batched-100k", func(b *testing.B) {
		const total = 100_000
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunMega(spec, total, megaScale, engine.Config{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/machine")
	})

	b.Run("permachine", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runReference(b, spec, megaScale)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(spec.Fleet.Machines), "ns/machine")
	})
}
