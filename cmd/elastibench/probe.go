package main

import (
	"sort"
	"time"
)

// The benchmark shares its host with other tenants whose load changes the
// speed of the whole machine by tens of percent over minutes: two runs of
// one seed can differ more than a regression worth catching. Every pass
// therefore times a fixed reference workload right before and right after
// itself, and every time the benchmark reports is scaled to the speed the
// host had when refProbe was recorded. The reference workload is standard
// library code only, so no change to the simulator can move it.

// refProbe is the median time of one probe on the recording host (a 2-core
// Intel Xeon VM, Go 1.24). It only fixes the unit of the scaled times;
// comparisons on any host cancel it.
const refProbe = 24 * time.Millisecond

// probeLen is the number of integers one probe sorts: 2 MiB, larger than
// the recording host's per-core caches, like the simulator's working sets.
const probeLen = 1 << 18

// probe fills a fresh buffer with a fixed pseudo-random sequence, sorts it,
// and returns the time taken. The buffer is garbage afterwards, so the
// probe leaves the measured heap as it found it.
func probe() time.Duration {
	t := time.Now()
	xs := make([]int, probeLen)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = int(x >> 1)
	}
	sort.Ints(xs)
	return time.Since(t)
}

// hostSpeed is the factor that converts a time measured between two probes
// to the recording host's speed: above 1 while the host runs faster than it
// did then, below 1 while it runs slower.
func hostSpeed(before, after time.Duration) float64 {
	return float64(2*refProbe) / float64(before+after)
}
