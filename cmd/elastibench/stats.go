package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return ys
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	ys := sorted(xs)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (the default "exclusive"
// interpolation), so the spreads printed here match the ones computed from
// the recorded values. One value gives that value twice; none gives zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	ys := sorted(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (ys[j-1]*float64(4-delta) + ys[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the ascending values ys: the smallest value with at least p% of the
// samples at or below it.
func percentile(ys []float64, p float64) float64 {
	n := len(ys)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return ys[rank-1]
}

// tailLadder is the set of percentiles a tail latency is reported at,
// highest first. It stops at p99: every workload that reports a tail has
// well over 1000 samples, so p99 is the reported tail and the lower rungs
// only serve reduced-size runs.
var tailLadder = []float64{99, 90, 50}

// tailPercentile picks the highest percentile on the ladder that leaves at
// least ten samples beyond it — a tail backed by fewer than ten
// observations is one outlier's value, not a percentile. With fewer than
// twenty samples even the median fails the rule; it is reported anyway.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}
