package main

import (
	"sort"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(xs, n=4), the values the spread check computes.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{nil, 0, 0},
		{[]float64{4}, 4, 4},
		{[]float64{1, 2}, 0.75, 2.25},                          // [0.75, 1.5, 2.25]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},                   // [1.5, 3.0, 4.5]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25}, // [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 6},                 // [2.0, 4.0, 6.0]
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	sort.Float64s(xs)
	for _, tc := range []struct {
		p, want float64
	}{
		{50, 50}, {99, 99}, {99.5, 100}, {100, 100}, {1, 1}, {0.1, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %g, want 0", got)
	}
}

// TestTailPercentile pins the rule that picks the reported tail: the
// highest ladder percentile with at least ten samples beyond it, falling
// back to lower rungs below 1000 samples and to the median below 20.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000000, 99},
		{1000, 99},
		{999, 90},
		{100, 90},
		{99, 50},
		{20, 50},
		{19, 50},
		{1, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
	}
}
