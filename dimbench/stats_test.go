package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// returns for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 3, 5, 7, 9}, 2, 5, 8},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileCountsTheTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000 down to 1: percentile must sort
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 500, 500},
		{95, 950, 50},
		{99, 990, 10},
		{100, 1000, 0},
		{0, 1, 999},
	} {
		got, beyond := percentile(xs, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 99); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("p99 of no samples = %v with %d beyond, want NaN with 0", v, beyond)
	}
}

func TestTailIgnoresAStallInOneSegment(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 20; i++ {
		xs[i] = 100 // a stall early in the run
	}
	if v, _ := percentile(xs, 99); v != 100 {
		t.Fatalf("whole-run p99 = %v, want the stall's 100", v)
	}
	if v, beyond := tail(xs, 99); v != 1 || beyond != 10 {
		t.Errorf("tail p99 = %v with %d beyond, want 1 with 10 (2 per segment)", v, beyond)
	}
	// Too few samples for every segment to reach past its p99: the whole
	// run's percentile.
	few := xs[:400]
	if v, beyond := tail(few, 99); v != 100 || beyond != 4 {
		t.Errorf("tail p99 of 400 = %v with %d beyond, want 100 with 4", v, beyond)
	}
}
