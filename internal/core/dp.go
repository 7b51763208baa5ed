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
// its two capacity constraints is slack, both programs are solved by one
// kernel over suffix-reachability bitsets (a shift, an OR and a mask per
// candidate, 64 capacity cells per word), and the steady state allocates
// nothing. The original naive programs are retained in
// dp_reference_test.go as the oracle for the differential tests.
package core

import (
	"math/bits"

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
	bits   []uint64   // pack's capacity mask and n+1 reachability planes
	ints   []int      // per-candidate weights on both capacity axes
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

// intsBuf returns an n-element integer scratch buffer (uninitialized).
func (s *Scratch) intsBuf(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, max(n, 2*cap(s.ints)))
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
		w := s.intsBuf(n)
		for i, j := range cands {
			w[i] = j.Size / g
		}
		s.selIdx = s.pack(w, nil, m/g, 0, s.selIdx)
	}
	s.memoStore()
	return s.selection(cands)
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
//   - total size <= m: the current-capacity axis never binds, so its
//     capacity shrinks to the window's total size and only the freeze
//     axis can cut a subset;
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
	bufs := s.intsBuf(2 * n)
	w1, w2 := bufs[:n], bufs[n:]
	total1, total2 := 0, 0
	allFull := true
	for i, j := range cands {
		f := 0
		if j.Dur >= cut {
			f = j.Size
		} else {
			allFull = false
		}
		w1[i], w2[i] = j.Size, f
		total1 += j.Size
		total2 += f
	}
	s.selIdx = s.selIdx[:0]
	if total1 <= m && total2 <= frec {
		// Fast path: all candidates fit both constraints.
		s.selectAll(n)
		s.memoStore()
		return s.selection(cands)
	}
	// The collapses only choose pack's axes and quantum; each keeps the
	// quantum the branch has always used.
	var g, c1, c2 int
	switch {
	case total2 <= frec:
		// The freeze constraint is slack for every subset (covers the
		// all-frenum-zero cycle): a single knapsack over m, as Basic_DP.
		g, c1, w2 = quantum(cands, m), m, nil
	case total1 <= m:
		// The current-capacity constraint is slack: its capacity shrinks
		// to the window total, and the freeze demand decides (zero-demand
		// candidates are free riders).
		g = quantum(cands, frec)
		c1, c2 = total1, frec
	case allFull:
		// Every candidate demands its full size at the freeze end: both
		// axes consume identically, collapsing to one knapsack over
		// min(m, frec).
		c1 = min(m, frec)
		g, w2 = quantum(cands, c1), nil
	default:
		g = quantum(cands, m, frec)
		c1, c2 = m, frec
	}
	for i := range w1 {
		w1[i] /= g
	}
	for i := range w2 {
		w2[i] /= g
	}
	s.selIdx = s.pack(w1, w2, c1/g, c2/g, s.selIdx)
	s.memoStore()
	return s.selection(cands)
}

// pack solves the 0/1 packing program behind Basic_DP and Reservation_DP:
// maximize the w1 total of a subset whose w1 total is at most C1 and
// whose w2 total is at most C2 (w2 nil with C2 = 0 for the one-axis
// program), and append the selected indices to sel.
//
// Plane i of the buffer is the set of (s1, s2) sums some subset of
// candidates i..n-1 reaches within the capacities, one bit per cell,
// row-major with row stride S = 2·C2+1. With that stride a shift by
// w1·S+w2 moves cell (s1, s2) to (s1+w1, s2+w2) without wrapping into the
// next row, so plane i is plane i+1 OR'ed with itself shifted, masked by
// valid, which clears the overflow columns and everything past row C1.
//
// The traceback starts from the optimum V, the highest non-empty row of
// plane 0, and takes candidate i iff row V-w1 of plane i+1 has a cell in
// columns 0..c2-w2, c2 being the freeze capacity left. The reference
// table's value at every traceback step equals the remaining V, so this
// is its "value with i equals value here" test, and earlier candidates
// win every tie as they do there.
func (s *Scratch) pack(w1, w2 []int, C1, C2 int, sel []int32) []int32 {
	n := len(w1)
	S := 2*C2 + 1
	W := ((C1+1)*S + 63) >> 6
	if cap(s.bits) < (n+2)*W {
		// Grown geometrically, as intsBuf is: windows and capacities
		// creep up over a run, and each step must not reallocate.
		s.bits = make([]uint64, max((n+2)*W, 2*cap(s.bits)))
	}
	buf := s.bits[:(n+2)*W]
	valid := buf[:W]
	clear(valid)
	if C2 == 0 { // one row per capacity unit: a single run of bits
		setBits(valid, 0, C1)
	} else {
		for r := 0; r <= C1; r++ {
			setBits(valid, r*S, r*S+C2)
		}
	}
	plane := func(i int) []uint64 { return buf[(i+1)*W : (i+2)*W] }
	base := plane(n)
	clear(base)
	base[0] = 1 // the empty subset reaches (0, 0)

	for i := n - 1; i >= 0; i-- {
		src, dst := plane(i+1), plane(i)
		a, b := w1[i], 0
		if w2 != nil {
			b = w2[i]
		}
		if a > C1 || b > C2 {
			copy(dst, src)
			continue
		}
		d := a*S + b
		q, r := d>>6, uint(d&63)
		copy(dst[:q], src)
		// Word q+k of the shifted plane is from[k] << r joined with the
		// high bits of from[k-1] (nothing when r is 0: a Go shift by 64
		// yields 0). The slices share one length so the loop carries no
		// bounds checks.
		from := src[:W-q]
		old, out, mask := src[q:], dst[q:], valid[q:]
		old, out, mask = old[:len(from)], out[:len(from)], mask[:len(from)]
		var carry uint64
		for k, x := range from {
			out[k] = old[k] | (x<<r|carry)&mask[k]
			carry = x >> (64 - r)
		}
	}

	top := plane(0)
	k := W - 1
	for top[k] == 0 {
		k--
	}
	V := (k<<6 + bits.Len64(top[k]) - 1) / S
	c2 := C2
	for i := 0; i < n; i++ {
		a, b := w1[i], 0
		if w2 != nil {
			b = w2[i]
		}
		if a > V || b > c2 {
			continue
		}
		row := (V - a) * S
		if anyBits(plane(i+1), row, row+c2-b) {
			sel = append(sel, int32(i))
			V -= a
			c2 -= b
		}
	}
	return sel
}

// setBits sets bits lo..hi (inclusive) of the bitset w.
func setBits(w []uint64, lo, hi int) {
	for lo <= hi {
		k, m := wordMask(lo, hi)
		w[k] |= m
		lo = (k + 1) << 6
	}
}

// anyBits reports whether any of bits lo..hi (inclusive) of w is set.
func anyBits(w []uint64, lo, hi int) bool {
	for lo <= hi {
		k, m := wordMask(lo, hi)
		if w[k]&m != 0 {
			return true
		}
		lo = (k + 1) << 6
	}
	return false
}

// wordMask returns the word holding bit lo and the mask of bits lo..hi
// (inclusive) within it.
func wordMask(lo, hi int) (k int, m uint64) {
	k = lo >> 6
	m = ^uint64(0) << uint(lo&63)
	if hi>>6 == k {
		m &= ^uint64(0) >> uint(63-hi&63)
	}
	return k, m
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
