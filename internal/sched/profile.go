package sched

import (
	"fmt"
	"sort"

	"elastisched/internal/job"
)

// Profile is a step function of free machine capacity over future time,
// built from running jobs and extended with reservations. Conservative
// backfilling uses it to give every waiting job a reservation; it is also
// handy for tests that need to reason about future capacity.
//
// The structure is persistent: it is designed to survive across scheduling
// cycles rather than be rebuilt per cycle. Advance drops expired leading
// steps in O(1) by moving a head offset, Release is the exact inverse of
// Reserve so job-completion and ECC extend/reduce deltas can be applied
// incrementally, and Rebuild/CopyFrom reuse the retained backing arrays so
// a per-cycle working copy allocates nothing in steady state. The dead
// prefix left behind by Advance doubles as gap slack: boundary insertions
// in the front half of the step array shift the short prefix left into it
// instead of shifting the whole tail right.
//
// Invariants: times[head:] is strictly ascending; free[i] applies on
// [times[i], times[i+1]) and the final segment is unbounded; the final
// segment's free capacity is always m (Reserve and Release operate on
// bounded intervals only), so every job fits eventually.
type Profile struct {
	m     int
	head  int     // first live step; times[head] is the horizon start
	times []int64 // step boundaries, ascending from head; dead prefix before
	free  []int   // free[i] applies on [times[i], times[i+1])
}

// Rebuild resets the profile to the free capacity implied by the running
// jobs — capacity steps up at each kill-by time — reusing the existing
// backing arrays; a zero Profile is ready for it. It is the cold path of
// the persistent profile: delta-maintained users call it once (and again
// after restore-from-snapshot), per-cycle users call it each cycle so the
// step arrays are not reallocated.
func (p *Profile) Rebuild(now int64, m int, active *job.ActiveList) {
	jobs := active.Jobs()
	if cap(p.times) < len(jobs)+1 {
		p.times = make([]int64, 0, 2*len(jobs)+8)
		p.free = make([]int, 0, 2*len(jobs)+8)
	}
	p.m = m
	p.head = 0
	p.times = append(p.times[:0], now)
	p.free = append(p.free[:0], m)
	for _, a := range jobs {
		p.Reserve(now, a.EndTime, a.Size)
	}
}

// CopyFrom makes p an exact copy of src's live window, reusing p's backing
// arrays. The copy lands at offset zero, so src's dead prefix is not
// inherited.
func (p *Profile) CopyFrom(src *Profile) {
	p.m = src.m
	p.head = 0
	p.times = append(p.times[:0], src.times[src.head:]...)
	p.free = append(p.free[:0], src.free[src.head:]...)
}

// Advance drops leading steps that have fully expired before now by moving
// the head offset — no copying, no allocation. The step containing now
// stays live even though its recorded boundary predates now; profile
// queries always ask about times at or after now, so the stale boundary is
// unobservable. The dead prefix is reclaimed (compacted away) only once it
// dominates the array, keeping the amortized cost O(1) per dropped step.
func (p *Profile) Advance(now int64) {
	for p.head+1 < len(p.times) && p.times[p.head+1] <= now {
		p.head++
	}
	if p.head > 32 && p.head > len(p.times)/2 {
		n := copy(p.times, p.times[p.head:])
		copy(p.free, p.free[p.head:])
		p.times = p.times[:n]
		p.free = p.free[:n]
		p.head = 0
	}
}

// Horizon returns the profile's first live boundary. Queries before the
// horizon are clamped to it.
func (p *Profile) Horizon() int64 { return p.times[p.head] }

// Len returns the number of live steps.
func (p *Profile) Len() int { return len(p.times) - p.head }

// FreeAt returns the free capacity at time t (t >= horizon start).
func (p *Profile) FreeAt(t int64) int {
	live := p.times[p.head:]
	i := sort.Search(len(live), func(i int) bool { return live[i] > t }) - 1
	if i < 0 {
		return p.m
	}
	return p.free[p.head+i]
}

// Reserve subtracts size processors over [from, to). It panics if the
// reservation overcommits the machine — callers must check with CanPlace
// or EarliestFit first. Only the affected step range is touched: the
// boundaries are ascending, so the range is located by binary search
// instead of scanning every step.
func (p *Profile) Reserve(from, to int64, size int) {
	if from >= to {
		return
	}
	p.apply(from, to, -size)
}

// Release is the exact inverse of Reserve: it returns size processors over
// [from, to). It panics if the release would raise free capacity above the
// machine size — releasing capacity that was never reserved is always a
// caller bug. Releasing may leave redundant boundaries (adjacent steps with
// equal free capacity); they are harmless to every query and get dropped by
// Advance/Rebuild like any other boundary.
func (p *Profile) Release(from, to int64, size int) {
	if from >= to {
		return
	}
	p.apply(from, to, size)
}

func (p *Profile) apply(from, to int64, delta int) {
	lo := p.split(from, p.head)
	h := p.head
	hi := p.split(to, lo)
	if p.head < h {
		// The second split shifted the prefix (including lo) one slot left.
		lo--
	}
	for i := lo; i < hi; i++ {
		p.free[i] += delta
		if p.free[i] < 0 {
			panic(fmt.Sprintf("sched: profile overcommitted at t=%d (%d free)", p.times[i], p.free[i]))
		}
		if p.free[i] > p.m {
			panic(fmt.Sprintf("sched: profile over-released at t=%d (%d free of %d)", p.times[i], p.free[i], p.m))
		}
	}
}

// split ensures t is a step boundary and returns the absolute index of the
// first boundary at or after t (t's own boundary, or the horizon when t
// precedes it). The binary search starts at absolute index loHint — apply
// passes the from-boundary's index when splitting to, so each Reserve or
// Release costs one full-window search, not three.
//
// When an insertion is needed, the cheaper side is shifted: if Advance
// left a dead prefix and t falls in the front half of the live window, the
// short prefix slides one slot left into it (head moves down, earlier
// indices shift by one); otherwise the tail shifts right. Reservations
// made at or near the current instant — the common case in a persistent
// profile whose horizon trails now — therefore do not pay for the whole
// tail.
func (p *Profile) split(t int64, loHint int) int {
	// Exact-hint fast path: callers that walked the profile (fitReserve's
	// anchor sweep) pass the segment t falls in, skipping the search.
	if lt := p.times[loHint]; lt == t {
		return loHint
	} else if lt < t && loHint+1 < len(p.times) && t == p.times[loHint+1] {
		return loHint + 1
	} else if lt < t && (loHint+1 == len(p.times) || t < p.times[loHint+1]) {
		return p.insert(t, loHint+1)
	}
	sub := p.times[loHint:]
	k := loHint + sort.Search(len(sub), func(i int) bool { return sub[i] >= t })
	if k < len(p.times) && p.times[k] == t {
		return k
	}
	if k == p.head {
		// t precedes the horizon: capacity before the horizon is not
		// tracked; clamp to the horizon start.
		return k
	}
	return p.insert(t, k)
}

// insert adds boundary t at index k (p.times[k-1] < t, and t < p.times[k]
// when k is not the end), shifting the cheaper side, and returns t's index
// after the shift. The new step inherits the free capacity of the segment
// it splits.
func (p *Profile) insert(t int64, k int) int {
	if p.head > 0 && k-p.head <= (len(p.times)-p.head)/2 {
		copy(p.times[p.head-1:], p.times[p.head:k])
		copy(p.free[p.head-1:], p.free[p.head:k])
		p.head--
		p.times[k-1] = t
		p.free[k-1] = p.free[k-2]
		return k - 1
	}
	p.times = append(p.times, 0)
	copy(p.times[k+1:], p.times[k:])
	p.times[k] = t
	p.free = append(p.free, 0)
	copy(p.free[k+1:], p.free[k:])
	p.free[k] = p.free[k-1]
	return k
}

// CanPlace reports whether size processors are free over [from, from+dur).
// The first overlapping segment is located by binary search; only segments
// intersecting the interval are inspected.
func (p *Profile) CanPlace(from int64, dur int64, size int) bool {
	end := from + dur
	live := p.times[p.head:]
	// First segment whose end extends past from: the one before the first
	// boundary strictly greater than from (the final segment is unbounded).
	i := sort.Search(len(live), func(i int) bool { return live[i] > from }) - 1
	if i < 0 {
		i = 0
	}
	for k := p.head + i; k < len(p.times) && p.times[k] < end; k++ {
		if p.free[k] < size {
			return false
		}
	}
	return true
}

// EarliestFit returns the earliest time >= from at which a (size, dur) job
// fits. A single forward sweep maintains the earliest still-viable start
// (the anchor): a segment with too little capacity pushes the anchor past
// its end; once the feasible run starting at the anchor spans dur — or
// reaches the final, unbounded segment — the anchor is the answer. The
// minimal feasible start is always either `from` or the end of a blocking
// segment, so the sweep is exact; it costs O(live steps) where probing
// every boundary with CanPlace cost O(live steps^2).
func (p *Profile) EarliestFit(from int64, dur int64, size int) int64 {
	if size > p.m {
		panic(fmt.Sprintf("sched: job of size %d cannot ever fit machine %d", size, p.m))
	}
	start := p.head
	if p.head+1 < len(p.times) && p.times[p.head+1] <= from {
		// from is past the first segment; locate its segment. The common
		// caller (the conservative pass) asks at from == now, which Advance
		// keeps inside the first live segment — no search needed there.
		live := p.times[p.head:]
		i := sort.Search(len(live), func(i int) bool { return live[i] > from }) - 1
		start = p.head + i
	}
	anchor := from
	for k := start; k < len(p.times); k++ {
		if p.free[k] < size {
			// The final segment always has free == m >= size, so a blocking
			// segment always has a successor.
			anchor = p.times[k+1]
			continue
		}
		if k+1 == len(p.times) || p.times[k+1]-anchor >= dur {
			return anchor
		}
	}
	return anchor
}

// fitReserve is EarliestFit immediately followed by Reserve, fused: the
// anchor sweep already identifies the segment holding the start (aseg) and
// the segment holding the end (the one the sweep stops in), so both split
// calls hit the exact-hint fast path and the reservation costs no binary
// search. Behaviour is identical to
//
//	at := p.EarliestFit(from, dur, size); p.Reserve(at, at+dur, size)
//
// which the differential tests assert.
func (p *Profile) fitReserve(from, dur int64, size int) int64 {
	if size > p.m {
		panic(fmt.Sprintf("sched: job of size %d cannot ever fit machine %d", size, p.m))
	}
	start := p.head
	if p.head+1 < len(p.times) && p.times[p.head+1] <= from {
		live := p.times[p.head:]
		i := sort.Search(len(live), func(i int) bool { return live[i] > from }) - 1
		start = p.head + i
	}
	anchor, aseg := from, start
	k := start
	for ; k < len(p.times); k++ {
		if p.free[k] < size {
			anchor = p.times[k+1]
			aseg = k + 1
			continue
		}
		if k+1 == len(p.times) || p.times[k+1]-anchor >= dur {
			break
		}
	}
	if dur <= 0 {
		return anchor
	}
	// The run [anchor, anchor+dur) ends inside segment k (or exactly at its
	// end boundary): k is the first segment whose feasible run reaches dur,
	// so times[k] < anchor+dur <= times[k+1] (when k is not final).
	to := anchor + dur
	n0 := len(p.times)
	lo := p.split(anchor, aseg)
	if len(p.times) > n0 {
		k++ // right-shift insertion moved k's segment up one; a left-shift
		// insertion leaves indices at and after k unchanged
	}
	h1 := p.head
	hi := p.split(to, k)
	if p.head < h1 {
		lo-- // the second split shifted the prefix (including lo) one slot left
	}
	for i := lo; i < hi; i++ {
		p.free[i] -= size
		if p.free[i] < 0 {
			panic(fmt.Sprintf("sched: profile overcommitted at t=%d (%d free)", p.times[i], p.free[i]))
		}
	}
	return anchor
}
