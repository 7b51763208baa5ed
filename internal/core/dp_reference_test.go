package core

import (
	"elastisched/internal/job"
)

// This file retains the original naive Basic_DP / Reservation_DP programs,
// exactly as first written, as the behavioral oracle for the optimized
// fast paths in dp.go: FuzzDPEquivalence and the randomized differential
// tests assert that BasicDP and ReservationDP return identical selections
// on every window. The oracles are deliberately self-contained — no
// Scratch, fresh allocations — so a bug in the fast-path plumbing cannot
// mask itself in the oracle.

// referenceBasicDP is the naive Basic_DP: a full (n+1) x (C+1) table with
// no row clamping or buffer reuse.
func referenceBasicDP(cands []*job.Job, m int) []*job.Job {
	if len(cands) == 0 || m <= 0 {
		return nil
	}
	total := 0
	for _, j := range cands {
		total += j.Size
	}
	if total <= m {
		return append([]*job.Job(nil), cands...)
	}

	g := quantum(cands, m)
	n := len(cands)
	C := m / g
	w := make([]int, n)
	for i, j := range cands {
		w[i] = j.Size / g
	}
	// dp[i*(C+1)+c] = max utilization using jobs i..n-1 with capacity c.
	dp := make([]int32, (n+1)*(C+1))
	for i := n - 1; i >= 0; i-- {
		row := dp[i*(C+1):]
		next := dp[(i+1)*(C+1):]
		wi := int32(w[i])
		for c := 0; c <= C; c++ {
			best := next[c]
			if w[i] <= c {
				if v := wi + next[c-w[i]]; v > best {
					best = v
				}
			}
			row[c] = best
		}
	}
	// Traceback, preferring inclusion (earlier jobs first).
	sel := make([]*job.Job, 0, n)
	c := C
	for i := 0; i < n; i++ {
		if w[i] <= c && dp[i*(C+1)+c] == int32(w[i])+dp[(i+1)*(C+1)+c-w[i]] {
			sel = append(sel, cands[i])
			c -= w[i]
		}
	}
	return sel
}

// referenceReservationDP is the naive Reservation_DP: the full
// (n+1) x (C1+1) x (C2+1) table with no collapses or clamping.
func referenceReservationDP(cands []*job.Job, m, frec int, fret, now int64) []*job.Job {
	if len(cands) == 0 || m <= 0 {
		return nil
	}
	if frec < 0 {
		frec = 0
	}
	// frenum per candidate.
	n := len(cands)
	fnum := make([]int, n)
	total1, total2 := 0, 0
	for i, j := range cands {
		if now+j.Dur < fret {
			fnum[i] = 0
		} else {
			fnum[i] = j.Size
		}
		total1 += j.Size
		total2 += fnum[i]
	}
	// Fast path: all candidates fit both constraints.
	if total1 <= m && total2 <= frec {
		return append([]*job.Job(nil), cands...)
	}

	g := quantum(cands, m, frec)
	C1 := m / g
	C2 := frec / g
	w1 := make([]int, n)
	w2 := make([]int, n)
	for i, j := range cands {
		w1[i] = j.Size / g
		w2[i] = fnum[i] / g
	}
	stride := C2 + 1
	plane := (C1 + 1) * stride
	dp := make([]int32, (n+1)*plane)
	for i := n - 1; i >= 0; i-- {
		cur := dp[i*plane : (i+1)*plane]
		next := dp[(i+1)*plane : (i+2)*plane]
		wi1, wi2 := w1[i], w2[i]
		v := int32(wi1)
		for c1 := 0; c1 <= C1; c1++ {
			rowOff := c1 * stride
			for c2 := 0; c2 <= C2; c2++ {
				best := next[rowOff+c2]
				if wi1 <= c1 && wi2 <= c2 {
					if x := v + next[(c1-wi1)*stride+c2-wi2]; x > best {
						best = x
					}
				}
				cur[rowOff+c2] = best
			}
		}
	}
	sel := make([]*job.Job, 0, n)
	c1, c2 := C1, C2
	for i := 0; i < n; i++ {
		if w1[i] <= c1 && w2[i] <= c2 {
			with := int32(w1[i]) + dp[(i+1)*plane+(c1-w1[i])*stride+c2-w2[i]]
			if dp[i*plane+c1*stride+c2] == with {
				sel = append(sel, cands[i])
				c1 -= w1[i]
				c2 -= w2[i]
			}
		}
	}
	return sel
}
