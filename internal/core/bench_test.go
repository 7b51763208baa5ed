package core

import (
	"math/rand"
	"testing"

	"elastisched/internal/job"
)

func randJobs(n int, r *rand.Rand) []*job.Job {
	out := make([]*job.Job, n)
	for i := range out {
		out[i] = &job.Job{
			ID:       i + 1,
			Size:     32 * (1 + r.Intn(10)),
			Dur:      int64(1 + r.Intn(10000)),
			ReqStart: -1,
		}
	}
	return out
}

// BenchmarkBasicDPCold measures one utilization-maximizing knapsack over
// the LOS paper's 50-job lookahead window on the 320-processor machine,
// alternating between two windows. The steady state must allocate nothing.
func BenchmarkBasicDPCold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	windows := [2][]*job.Job{randJobs(50, r), randJobs(50, r)}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BasicDP(windows[i&1], 320, &s)
	}
}

// BenchmarkReservationDPCold measures the general two-dimensional program
// (quantized to 32-processor node groups): both constraints bind
// (durations straddle the freeze end), so no collapse applies.
func BenchmarkReservationDPCold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	windows := [2][]*job.Job{randJobs(50, r), randJobs(50, r)}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservationDP(windows[i&1], 320, 160, 5000, 0, &s)
	}
}

// BenchmarkReservationDPCollapseSlackFreeze measures the dimension
// collapse when every candidate finishes before the freeze end (frenum
// all zero): the program degenerates to a single knapsack over m.
func BenchmarkReservationDPCollapseSlackFreeze(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	windows := [2][]*job.Job{randJobs(50, r), randJobs(50, r)}
	for _, w := range windows {
		for _, j := range w {
			j.Dur = int64(1 + r.Intn(100)) // all finish before fret
		}
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservationDP(windows[i&1], 320, 160, 5000, 0, &s)
	}
}

// BenchmarkReservationDPCollapseAllFull measures the collapse when every
// candidate still runs at the freeze end (frenum = size): one knapsack
// over min(m, frec).
func BenchmarkReservationDPCollapseAllFull(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	windows := [2][]*job.Job{randJobs(50, r), randJobs(50, r)}
	for _, w := range windows {
		for _, j := range w {
			j.Dur = int64(5000 + r.Intn(5000)) // all still running at fret
		}
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservationDP(windows[i&1], 320, 160, 5000, 0, &s)
	}
}

// BenchmarkReservationDPUnquantizedCold measures the SDSC-like worst
// case: unit-1 sizes blow the DP state up to ~50x129x129, the full 2-D
// program over the irregular state space.
func BenchmarkReservationDPUnquantizedCold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var windows [2][]*job.Job
	for w := range windows {
		cands := make([]*job.Job, 50)
		for i := range cands {
			size := 1 << r.Intn(7)
			if r.Float64() < 0.3 {
				size = 1 + r.Intn(127)
			}
			cands[i] = &job.Job{ID: i + 1, Size: size, Dur: int64(1 + r.Intn(10000)), ReqStart: -1}
		}
		windows[w] = cands
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservationDP(windows[i&1], 127, 100, 5000, 0, &s)
	}
}
