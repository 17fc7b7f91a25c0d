// Package analysis implements the quantitative machinery of the paper's
// evaluation: the analytical throughput and energy models of §2.2, Pareto
// boundary extraction, the power-law trade-off fit T(r) = α·r^β used in
// Figure 4 and Table 1, and the summary statistics the validation section
// reports.
package analysis

import (
	"math"
	"sort"
)

// Summary holds basic descriptive statistics of a data set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
}

// Summarize computes descriptive statistics. An empty input yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// MeanAbs returns the mean of |x| over the input (0 for empty input).
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Abs(x)
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. The input need not be sorted. It
// returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

// Quantiles returns the requested percentiles (each in [0,100]) of xs,
// copying and sorting the input exactly once and indexing every quantile
// out of the sorted slice. Each returned value is bit-identical to the
// corresponding Percentile call; the single sort is what makes fleet-scale
// aggregation O(n log n) instead of O(q·n log n). An empty input yields all
// zeros.
func Quantiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = quantileSorted(sorted, p)
	}
	return out
}

// quantileSorted reads the p-th percentile out of an already-sorted,
// non-empty slice by linear interpolation between closest ranks — the single
// definition Percentile and Quantiles share, so the two can never drift.
func quantileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Kahan is a compensated (Kahan) summation accumulator. Fleet aggregation
// folds per-machine metrics in strict index order through Kahan sums, so the
// totals stay exact to the last bit well past a million terms and — because
// the reduction order is fixed — identical regardless of which path (full,
// sharded, or tiled mega fleet) produced the terms. The zero
// value is an empty sum.
type Kahan struct {
	sum, c float64
}

// Add folds x into the sum, carrying the rounding error of the addition in
// the compensation term.
func (k *Kahan) Add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the compensated total so far.
func (k *Kahan) Sum() float64 { return k.sum }

// LinearFit is the least-squares line y = Intercept + Slope·x, with the
// coefficient of determination R2.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear performs ordinary least squares on paired samples. It returns
// ok=false when fewer than two distinct x values are supplied.
func FitLinear(xs, ys []float64) (LinearFit, bool) {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return LinearFit{}, false
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, false
	}
	fit := LinearFit{Slope: sxy / sxx}
	fit.Intercept = my - fit.Slope*mx
	if syy > 0 {
		// R² = 1 - SSE/SST computed via the regression identity.
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit, true
}
