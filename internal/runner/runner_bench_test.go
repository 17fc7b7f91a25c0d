package runner

import (
	"fmt"
	"testing"
)

// busyTrial is a small deterministic compute kernel standing in for a
// simulation trial.
func busyTrial(i, n int) float64 {
	acc := float64(i)
	for k := 0; k < n; k++ {
		acc += float64(k%7) * 1e-3
	}
	return acc
}

// BenchmarkRunnerFanout measures sweep dispatch at several pool sizes. Each
// iteration fans 64 trials of ~50µs out across the pool; on a multi-core
// runner the jobs>1 variants approach linear scaling, while on a single
// hardware thread they bound the coordination overhead.
func BenchmarkRunnerFanout(b *testing.B) {
	specs := make([]int, 64)
	for i := range specs {
		specs[i] = 100_000
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Map(jobs, specs, busyTrial)
			}
		})
	}
}

// BenchmarkRunnerOverhead isolates the per-trial dispatch cost with empty
// trial bodies.
func BenchmarkRunnerOverhead(b *testing.B) {
	specs := make([]int, 1024)
	for i := 0; i < b.N; i++ {
		Map(8, specs, func(i, _ int) int { return i })
	}
}
