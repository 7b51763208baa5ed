// Package core implements the paper's primary contribution: the LOS family
// of dynamic-programming schedulers — LOS (Shmueli & Feitelson's Lookahead
// Optimizing Scheduler, the baseline), Delayed-LOS (Algorithm 1), and
// Hybrid-LOS (Algorithms 2-3) — plus the Basic_DP and Reservation_DP
// packing programs they share.
//
// The packing programs run on a fast path engineered for the simulator's
// hot loop (see DESIGN.md, "Packing-engine performance"): a per-Scratch
// cycle memo returns the previous selection in O(n) when the DP inputs are
// unchanged, Reservation_DP collapses to a single knapsack whenever one of
// its two capacity constraints is slack, DP rows are filled only up to the
// running suffix weight, and the steady state allocates nothing. The
// original naive programs are retained in dp_reference_test.go as the oracle
// for the differential tests.
package core

import (
	"elastisched/internal/job"
)

// DefaultLookahead bounds the DP candidate window, the LOS paper's
// complexity containment (50 jobs keeps packing quality with tractable
// runtime).
const DefaultLookahead = 50

// Scratch holds reusable DP buffers and the single-entry cycle memo so
// per-cycle scheduling does not allocate. A Scratch (and therefore a
// scheduler that embeds one) must not be shared between concurrently
// running simulations.
//
// Aliasing contract: the []*job.Job slice returned by BasicDP and
// ReservationDP is owned by the Scratch and remains valid only until the
// next BasicDP/ReservationDP call on the same Scratch; callers that retain
// a selection across calls must copy it. All in-tree callers consume the
// selection before scheduling again.
type Scratch struct {
	buf    []int32    // DP value table
	ints   []int      // per-candidate weights and suffix weight sums
	sel    []*job.Job // materialized selection handed to the caller
	selIdx []int32    // selection as indices into the candidate window

	// Cycle memo: lastKey fingerprints the previous solve's inputs and
	// selIdx its selection. Consecutive scheduling instants with an
	// unchanged waiting window hit the memo and skip the DP entirely.
	key, lastKey []int64
	memoOK       bool
	hits, misses uint64
}

// Memo key kinds. Basic_DP and Reservation_DP selections are never
// interchangeable, so the kind is part of the fingerprint.
const (
	memoBasic int64 = 1 + iota
	memoReservation
)

// MemoStats reports cycle-memo hits and misses over the Scratch's
// lifetime, for diagnostics and benchmarks.
func (s *Scratch) MemoStats() (hits, misses uint64) { return s.hits, s.misses }

// memoLookup fingerprints the DP inputs that determine a selection and
// reports whether they match the previous solve on this Scratch. The key
// deliberately excludes job identity: the memoized selection is stored as
// window indices, so equal (size, freeze demand) vectors under equal
// capacities select the same indices regardless of which jobs occupy the
// slots. cut is fret-now for Reservation_DP — a candidate with Dur >= cut
// still runs at the freeze end and demands its full size there — and is
// irrelevant for Basic_DP, whose selection depends on sizes only.
func (s *Scratch) memoLookup(kind int64, cands []*job.Job, m, frec int, cut int64) bool {
	k := append(s.key[:0], kind, int64(len(cands)), int64(m), int64(frec))
	if kind == memoReservation {
		for _, j := range cands {
			e := int64(j.Size) << 1
			if j.Dur >= cut {
				e |= 1
			}
			k = append(k, e)
		}
	} else {
		for _, j := range cands {
			k = append(k, int64(j.Size)<<1)
		}
	}
	s.key = k
	if s.memoOK && int64sEqual(k, s.lastKey) {
		s.hits++
		return true
	}
	s.misses++
	return false
}

// memoStore publishes the just-computed selection (already in selIdx) for
// the key built by the preceding memoLookup.
func (s *Scratch) memoStore() {
	s.key, s.lastKey = s.lastKey, s.key
	s.memoOK = true
}

// selection materializes selIdx against the current candidate window into
// the Scratch-owned result slice.
func (s *Scratch) selection(cands []*job.Job) []*job.Job {
	sel := s.sel[:0]
	for _, i := range s.selIdx {
		sel = append(sel, cands[i])
	}
	s.sel = sel
	return sel
}

// selectAll records the whole window as selected.
func (s *Scratch) selectAll(n int) {
	for i := 0; i < n; i++ {
		s.selIdx = append(s.selIdx, int32(i))
	}
}

// growRaw returns an n-element DP buffer WITHOUT zeroing: every DP fill
// writes each cell it later reads (reads beyond a row's clamp are
// redirected into the filled region), so only the base-case cell needs
// initialization.
func (s *Scratch) growRaw(n int) []int32 {
	if cap(s.buf) < n {
		s.buf = make([]int32, n)
	}
	return s.buf[:n]
}

// intsBuf returns an n-element integer scratch buffer (uninitialized).
func (s *Scratch) intsBuf(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, n)
	}
	return s.ints[:n]
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gcdInt returns the greatest common divisor of a and b.
func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// quantum returns the largest g dividing every candidate size and every
// capacity bound, used to compress the DP capacity axes. For the simulated
// BlueGene/P (all sizes multiples of 32) this shrinks the Reservation_DP
// state by 32x32.
func quantum(cands []*job.Job, caps ...int) int {
	g := 0
	for _, c := range caps {
		if c > 0 {
			g = gcdInt(g, c)
		}
	}
	for _, j := range cands {
		g = gcdInt(g, j.Size)
	}
	if g <= 0 {
		g = 1
	}
	return g
}

// BasicDP is the paper's Basic_DP: choose the subset of waiting jobs that
// maximizes current utilization, i.e. a 0/1 knapsack over the candidate
// window with weight = value = job size and capacity m. Candidates must
// already fit individually (size <= m); Context.Window guarantees that.
//
// The traceback prefers including earlier-queued jobs: the head job is
// selected whenever *some* maximum-utilization subset contains it, which is
// the property Delayed-LOS's skip count relies on.
//
// The returned slice is Scratch-owned; see the Scratch aliasing contract.
func BasicDP(cands []*job.Job, m int, s *Scratch) []*job.Job {
	if len(cands) == 0 || m <= 0 {
		return nil
	}
	if s.memoLookup(memoBasic, cands, m, 0, 0) {
		return s.selection(cands)
	}
	total := 0
	for _, j := range cands {
		total += j.Size
	}
	s.selIdx = s.selIdx[:0]
	n := len(cands)
	if total <= m {
		// Fast path: everything fits together.
		s.selectAll(n)
	} else {
		g := quantum(cands, m)
		bufs := s.intsBuf(2*n + 1)
		w := bufs[:n]
		for i, j := range cands {
			w[i] = j.Size / g
		}
		s.selIdx = s.knapsack1D(w, w, bufs[n:2*n+1], m/g, s.selIdx)
	}
	s.memoStore()
	return s.selection(cands)
}

// knapsack1D solves a 0/1 knapsack (weights w, values v, capacity C) over
// the window and appends the selected indices to sel. suf is an n+1
// scratch buffer for the running suffix weights; each DP row is filled
// only up to min(C, suffix weight) — beyond it the row is constant, so
// reads clamp into the filled region. The traceback prefers including
// earlier-queued jobs, matching the reference implementation exactly.
func (s *Scratch) knapsack1D(w, v, suf []int, C int, sel []int32) []int32 {
	n := len(w)
	suf[n] = 0
	for i := n - 1; i >= 0; i-- {
		suf[i] = suf[i+1] + w[i]
	}
	stride := C + 1
	dp := s.growRaw((n + 1) * stride)
	dp[n*stride] = 0 // base row is always read at its clamp, cell 0
	for i := n - 1; i >= 0; i-- {
		row := dp[i*stride:]
		next := dp[(i+1)*stride:]
		cl := min(C, suf[i])
		cln := min(C, suf[i+1]) // <= cl; next row is constant beyond it
		wi, vi := w[i], int32(v[i])
		// Up to the next row's clamp both reads are direct (c-wi <= c).
		for c := 0; c <= cln; c++ {
			best := next[c]
			if wi <= c {
				if x := vi + next[c-wi]; x > best {
					best = x
				}
			}
			row[c] = best
		}
		// Beyond it the skip-read is the next row's constant tail.
		skip := dp[(i+1)*stride+cln]
		for c := cln + 1; c <= cl; c++ {
			best := skip
			if wi <= c {
				if x := vi + next[min(c-wi, cln)]; x > best {
					best = x
				}
			}
			row[c] = best
		}
	}
	c := min(C, suf[0])
	for i := 0; i < n; i++ {
		if w[i] > c {
			continue
		}
		cur := dp[i*stride+min(c, min(C, suf[i]))]
		with := int32(v[i]) + dp[(i+1)*stride+min(c-w[i], min(C, suf[i+1]))]
		if cur == with {
			sel = append(sel, int32(i))
			c -= w[i]
		}
	}
	return sel
}

// ReservationDP is the paper's Reservation_DP: maximize current utilization
// subject to two constraints — the current free capacity m, and the freeze
// end capacity frec available at the freeze end time fret. A candidate that
// finishes strictly before fret (now + dur < fret) has zero freeze demand
// (frenum = 0); one that would still run at fret demands its full size from
// the freeze capacity, exactly the paper's
//
//	frenum <- (t + dur < fret) ? 0 : num.
//
// This is a 0/1 knapsack with two capacity dimensions, solved exactly over
// the candidate window. The fast path collapses a dimension whenever one
// constraint is slack for every subset:
//
//   - total freeze demand <= frec (in particular, every frenum = 0): the
//     freeze axis never binds and the program degenerates to Basic_DP's
//     single knapsack over m;
//   - total size <= m: the current-capacity axis never binds, leaving one
//     knapsack over frec weighted by freeze demand but valued by size;
//   - every frenum equals the size: both axes consume identically and the
//     program collapses to a single knapsack over min(m, frec).
//
// All collapses provably return the reference implementation's selection
// (see dp_reference_test.go and FuzzDPEquivalence).
//
// The returned slice is Scratch-owned; see the Scratch aliasing contract.
func ReservationDP(cands []*job.Job, m, frec int, fret, now int64, s *Scratch) []*job.Job {
	if len(cands) == 0 || m <= 0 {
		return nil
	}
	if frec < 0 {
		frec = 0
	}
	cut := fret - now // a candidate with Dur >= cut still runs at the freeze end
	if s.memoLookup(memoReservation, cands, m, frec, cut) {
		return s.selection(cands)
	}
	n := len(cands)
	bufs := s.intsBuf(5*n + 2)
	fnum := bufs[:n]
	total1, total2 := 0, 0
	allFull := true
	for i, j := range cands {
		f := 0
		if j.Dur >= cut {
			f = j.Size
		} else {
			allFull = false
		}
		fnum[i] = f
		total1 += j.Size
		total2 += f
	}
	s.selIdx = s.selIdx[:0]
	switch {
	case total1 <= m && total2 <= frec:
		// Fast path: all candidates fit both constraints.
		s.selectAll(n)

	case total2 <= frec:
		// The freeze constraint is slack for every subset (covers the
		// all-frenum-zero cycle): a single knapsack over m, as Basic_DP.
		g := quantum(cands, m)
		w := bufs[n : 2*n]
		for i, j := range cands {
			w[i] = j.Size / g
		}
		s.selIdx = s.knapsack1D(w, w, bufs[2*n:3*n+1], m/g, s.selIdx)

	case total1 <= m:
		// The current-capacity constraint is slack: a single knapsack over
		// the freeze capacity, weighted by freeze demand but still valued
		// by size (zero-demand candidates are free riders).
		g := quantum(cands, frec)
		w2 := bufs[n : 2*n]
		w1 := bufs[2*n : 3*n]
		for i, j := range cands {
			w2[i] = fnum[i] / g
			w1[i] = j.Size / g
		}
		s.selIdx = s.knapsack1D(w2, w1, bufs[3*n:4*n+1], frec/g, s.selIdx)

	case allFull:
		// Every candidate demands its full size at the freeze end: both
		// axes consume identically, collapsing to one knapsack over
		// min(m, frec).
		c := min(m, frec)
		g := quantum(cands, c)
		w := bufs[n : 2*n]
		for i, j := range cands {
			w[i] = j.Size / g
		}
		s.selIdx = s.knapsack1D(w, w, bufs[2*n:3*n+1], c/g, s.selIdx)

	default:
		s.selIdx = s.reservation2D(cands, fnum, bufs, m, frec, s.selIdx)
	}
	s.memoStore()
	return s.selection(cands)
}

// reservation2D solves the full two-constraint knapsack. Each DP row is
// filled only up to its running suffix weights (reads beyond a clamp land
// in the constant region), and a row's inner loop exits early once the
// max-utilization bound — the row's weight-1 capacity — is reached, since
// the row is non-decreasing in the freeze axis and capped by that bound.
func (s *Scratch) reservation2D(cands []*job.Job, fnum, bufs []int, m, frec int, sel []int32) []int32 {
	n := len(cands)
	g := quantum(cands, m, frec)
	w1 := bufs[n : 2*n]
	w2 := bufs[2*n : 3*n]
	suf1 := bufs[3*n : 4*n+1]
	suf2 := bufs[4*n+1 : 5*n+2]
	for i, j := range cands {
		w1[i] = j.Size / g
		w2[i] = fnum[i] / g
	}
	suf1[n], suf2[n] = 0, 0
	for i := n - 1; i >= 0; i-- {
		suf1[i] = suf1[i+1] + w1[i]
		suf2[i] = suf2[i+1] + w2[i]
	}
	C1 := m / g
	C2 := frec / g
	stride := C2 + 1
	plane := (C1 + 1) * stride
	dp := s.growRaw((n + 1) * plane)
	dp[n*plane] = 0 // base row is always read at its clamp, cell 0
	for i := n - 1; i >= 0; i-- {
		cur := dp[i*plane:]
		next := dp[(i+1)*plane:]
		cl1, cl2 := min(C1, suf1[i]), min(C2, suf2[i])
		nl1, nl2 := min(C1, suf1[i+1]), min(C2, suf2[i+1])
		wi1, wi2 := w1[i], w2[i]
		vi := int32(wi1)
		lim := min(cl2, nl2)
		for c1 := 0; c1 <= cl1; c1++ {
			row := cur[c1*stride : c1*stride+cl2+1]
			skip := next[min(c1, nl1)*stride:]
			var take []int32
			if wi1 <= c1 {
				take = next[min(c1-wi1, nl1)*stride:]
			}
			bound := int32(c1) // utilization can never exceed the capacity used
			done := false
			// Up to the next row's clamp both reads are direct (c2-wi2 <= c2).
			for c2 := 0; c2 <= lim; c2++ {
				best := skip[c2]
				if take != nil && wi2 <= c2 {
					if x := vi + take[c2-wi2]; x > best {
						best = x
					}
				}
				row[c2] = best
				if best == bound {
					// Early exit: the row is non-decreasing in c2 and capped
					// by the bound, so the rest of it equals best.
					for k := c2 + 1; k <= cl2; k++ {
						row[k] = best
					}
					done = true
					break
				}
			}
			if done {
				continue
			}
			// Beyond it the skip-read is the next row's constant tail.
			skipTail := skip[nl2]
			for c2 := lim + 1; c2 <= cl2; c2++ {
				best := skipTail
				if take != nil && wi2 <= c2 {
					if x := vi + take[min(c2-wi2, nl2)]; x > best {
						best = x
					}
				}
				row[c2] = best
				if best == bound {
					for k := c2 + 1; k <= cl2; k++ {
						row[k] = best
					}
					break
				}
			}
		}
	}
	c1, c2 := C1, C2
	for i := 0; i < n; i++ {
		if w1[i] > c1 || w2[i] > c2 {
			continue
		}
		cur := dp[i*plane+min(c1, min(C1, suf1[i]))*stride+min(c2, min(C2, suf2[i]))]
		nl1, nl2 := min(C1, suf1[i+1]), min(C2, suf2[i+1])
		with := int32(w1[i]) + dp[(i+1)*plane+min(c1-w1[i], nl1)*stride+min(c2-w2[i], nl2)]
		if cur == with {
			sel = append(sel, int32(i))
			c1 -= w1[i]
			c2 -= w2[i]
		}
	}
	return sel
}

// Contains reports whether set includes j (by identity).
func Contains(set []*job.Job, j *job.Job) bool {
	for _, x := range set {
		if x == j {
			return true
		}
	}
	return false
}
