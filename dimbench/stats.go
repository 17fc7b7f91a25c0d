package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, or the mean of the two middle values for
// an even count. NaN when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points splitting xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method, so a spread computed here reads the same as
// one computed from the printed values. NaNs when xs is empty.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// tailSegments is how many consecutive segments tail splits a run into.
const tailSegments = 5

// tail is the p-th percentile of xs, samples in arrival order, taken as the
// median of the percentiles of tailSegments consecutive segments — when each
// segment still has samples beyond its percentile, else over all of xs. A
// stall that lands in one segment then cannot decide the run's tail, which
// keeps the figure steady from run to run. beyond counts the samples past
// the percentile in every segment used.
func tail(xs []float64, p float64) (value float64, beyond int) {
	k := tailSegments
	if float64(len(xs))*(100-p)/100 < float64(k) {
		return percentile(xs, p)
	}
	per := make([]float64, k)
	for i := range per {
		v, b := percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], p)
		per[i] = v
		beyond += b
	}
	return median(per), beyond
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie beyond it — the count that says how much of the tail the
// value rests on. NaN and 0 when xs is empty.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p * float64(n) / 100))
	rank = max(1, min(rank, n))
	return s[rank-1], n - rank
}
