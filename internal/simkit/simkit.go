// Package simkit provides a minimal deterministic discrete-event simulation
// kernel: a monotonic clock and a cancellable priority event queue.
//
// It plays the role GridSim/ALEA play in the paper's Java framework: events
// (job arrival, job completion, dedicated-job due times, elastic control
// commands) are delivered in non-decreasing time order, with FIFO ordering
// among events that share a timestamp. Event handles can be cancelled, which
// is required when an Elastic Control Command moves a running job's kill-by
// time and its completion event must be rescheduled.
//
// The kernel recycles event records through a free list so the steady-state
// schedule/dispatch cycle performs no heap allocation. Handles carry a
// generation counter: a handle taken out on a record that has since fired
// (or been cancelled) and been reissued for a new event can never cancel
// the new occupant.
//
// Cancellation is lazy: a cancelled event's record is voided (generation
// bump) but its queue entry stays until it surfaces at the top, where it is
// discarded. The queue therefore never needs random-access removal, its
// entries embed the (time, seq) ordering key — no pointer chasing in the
// hot comparisons — and sift operations never write back into event
// records. A compaction pass bounds the garbage when cancellations dominate.
//
// The queue has two parts. The heap above holds dynamic events: anything
// scheduled with AtArg, at any time, cancellable. The static source holds
// events registered with AtStatic before the first dispatch (a replayed
// trace's arrivals, commands and faults): never cancelled, each a 24-byte
// (time, seq, kind, index) record with no arena slot and no heap entry.
// Registration splits the source into its maximal time-ordered runs, and
// a small heap of run cursors, ordered by each run's head, merges them:
// a trace whose streams are each in order costs one cursor per stream and
// no sort. Both parts draw sequence numbers from one counter, and every
// dispatch takes the minimum (time, seq) over the top run's head and the
// heap top, so the dispatch order is exactly what it would be with every
// event on the heap.
package simkit

import (
	"cmp"
	"fmt"
	"slices"
)

// Time is simulation time in integer seconds. Integer time keeps event
// ordering exact and runs reproducible for a given seed.
type Time = int64

// ArgHandler is the callback of a dynamic event; it receives the argument
// the event was scheduled with. Long-lived callers (the engine's
// arrival/completion paths) schedule with one shared ArgHandler instead of
// allocating a fresh closure per event.
type ArgHandler func(now Time, arg any)

// StaticKind is a caller-chosen tag of a static event, passed back to the
// StaticHandler. It must be nonzero: PendingEvent uses zero to mark heap
// events.
type StaticKind uint8

// StaticHandler is the one callback of an engine's static source: it
// receives the kind and the index the event was registered with,
// typically a position in a slice the caller owns.
type StaticHandler func(now Time, kind StaticKind, idx int)

// event is one scheduled occurrence's record. Records are pooled: gen
// increments each time the record is voided (fired, cancelled, or
// recycled), invalidating outstanding handles.
type event struct {
	time Time
	gen  uint64
	afn  ArgHandler
	arg  any
}

// Handle identifies one scheduled event. The zero Handle is valid and
// refers to no event: Scheduled reports false, Time reports !ok, and
// Cancel is a guaranteed no-op. Handles stay safe after the event fires or
// is cancelled: the record's generation counter has moved on, so a stale
// Cancel is a no-op even if the record has been reissued — callers that
// keep handles in lookup tables (the engine's completion table) may Cancel
// whatever the table returns, including the zero Handle for an absent ID,
// without guarding.
type Handle struct {
	ev  *event
	gen uint64
}

// Scheduled reports whether the handle's event is still pending.
func (h Handle) Scheduled() bool { return h.ev != nil && h.ev.gen == h.gen }

// Time returns the pending event's fire time; ok is false if the event has
// already fired or been cancelled.
func (h Handle) Time() (t Time, ok bool) {
	if !h.Scheduled() {
		return 0, false
	}
	return h.ev.time, true
}

// chunkShift sizes the event arena's chunks (1<<chunkShift records each).
const chunkShift = 7

// Engine is the event loop. The zero value is not usable; use New.
//
// Event records live in chunked arenas and are addressed by a small integer
// id. Queue entries carry the id, not a pointer, so the queue is a
// pointer-free array: sift operations move plain bytes with no GC write
// barriers, and the collector never scans the queue.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	stepped uint64 // events dispatched
	live    int    // scheduled, uncancelled events, static and dynamic
	dead    int    // cancelled entries still buried in the queue
	chunks  [][]event
	freeIDs []int32

	// src is the static source in registration order: a sequence of
	// maximal runs ascending in time, a run ending where the next
	// registration is earlier than its predecessor. heads is a min-heap
	// of src positions, one per run with events still pending, ordered
	// by the (time, seq) of the event each points at.
	src      []static
	heads    []int32
	onStatic StaticHandler
}

// static is one static source event. seq comes from the engine's one
// sequence counter, so (time, seq) orders it against heap entries.
type static struct {
	time Time
	seq  uint64
	kind StaticKind
	idx  int32
}

// at returns the record for an event id.
func (e *Engine) at(id int32) *event {
	return &e.chunks[id>>chunkShift][id&(1<<chunkShift-1)]
}

// New returns an empty engine with the clock at 0.
func New() *Engine {
	return &Engine{}
}

// Reset returns the engine to the state New leaves it in, clock and
// sequence counter at zero and nothing pending, but keeps the capacity of
// its event arena, heap, static source and run cursors, and its static
// handler. Every pending event is dropped and every outstanding Handle
// goes stale, so a Cancel through one is a no-op.
func (e *Engine) Reset() {
	for _, en := range e.queue {
		e.recycle(en.id)
	}
	*e = Engine{
		queue:    e.queue[:0],
		chunks:   e.chunks,
		freeIDs:  e.freeIDs,
		src:      e.src[:0],
		heads:    e.heads[:0],
		onStatic: e.onStatic,
	}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Dispatched returns the number of events dispatched so far.
func (e *Engine) Dispatched() uint64 { return e.stepped }

// Pending returns the number of scheduled events, static and dynamic.
// O(1): a live counter is maintained across AtArg, Cancel, and dispatch.
func (e *Engine) Pending() int { return e.live }

// AtArg schedules fn(t, arg) at absolute time t. The callback is a shared
// function plus an argument, so a caller dispatching many events through
// one handler performs no per-event closure allocation. Scheduling in the
// past (t < Now) is an error in the caller; the engine panics to surface
// the bug instead of silently reordering history.
func (e *Engine) AtArg(t Time, fn ArgHandler, arg any) Handle {
	ev := e.at(e.acquire(t))
	ev.afn = fn
	ev.arg = arg
	return Handle{ev, ev.gen}
}

// OnStatic installs the handler every static event is dispatched to.
func (e *Engine) OnStatic(fn StaticHandler) { e.onStatic = fn }

// AtStatic registers a static event: the OnStatic handler runs with kind
// k and idx at absolute time t. Static events must be registered before
// the first dispatch and cannot be cancelled; in exchange they cost no
// event record and no heap entry. They take their sequence number from
// the counter AtArg uses, so interleaving AtStatic with AtArg yields
// the same dispatch order as scheduling everything with AtArg.
func (e *Engine) AtStatic(t Time, k StaticKind, idx int) {
	switch {
	case e.stepped > 0:
		panic("simkit: static event registered after the first dispatch")
	case t < e.now:
		panic(fmt.Sprintf("simkit: scheduling event at %d before now %d", t, e.now))
	case k == 0 || e.onStatic == nil:
		panic(fmt.Sprintf("simkit: static event of kind %d without a handler", k))
	case idx < 0 || idx > 1<<31-1:
		panic(fmt.Sprintf("simkit: static index %d outside int32", idx))
	}
	pos := len(e.src)
	if pos > 1<<31-1 {
		panic("simkit: more than 1<<31 static events")
	}
	e.src = append(e.src, static{time: t, seq: e.seq, kind: k, idx: int32(idx)})
	e.seq++
	e.live++
	// An event no earlier than its predecessor extends that run; its
	// cursor's head is unchanged, so the heads heap is too.
	if pos == 0 || t < e.src[pos-1].time {
		e.heads = append(e.heads, int32(pos))
		e.siftUpHead(len(e.heads) - 1)
	}
}

// GrowStatic makes room for n more static events, so a caller that knows
// its stream lengths registers them with one allocation.
func (e *Engine) GrowStatic(n int) { e.src = slices.Grow(e.src, n) }

// acquire takes an event record from the free list (or grows the arena by
// one chunk), stamps it, and enqueues it.
func (e *Engine) acquire(t Time) int32 {
	if t < e.now {
		panic(fmt.Sprintf("simkit: scheduling event at %d before now %d", t, e.now))
	}
	if len(e.freeIDs) == 0 {
		// Grow the arena a chunk at a time: cold-start scheduling costs one
		// allocation per 1<<chunkShift events, not one per event.
		base := int32(len(e.chunks)) << chunkShift
		e.chunks = append(e.chunks, make([]event, 1<<chunkShift))
		for i := int32(1<<chunkShift - 1); i >= 0; i-- {
			e.freeIDs = append(e.freeIDs, base+i)
		}
	}
	id := e.freeIDs[len(e.freeIDs)-1]
	e.freeIDs = e.freeIDs[:len(e.freeIDs)-1]
	ev := e.at(id)
	ev.time = t
	e.queue.push(entry{time: t, seq: e.seq, gen: ev.gen, id: id})
	e.seq++
	e.live++
	return id
}

// recycle invalidates outstanding handles and returns the record to the
// free list. Callback references are dropped so the arena does not pin
// closures or arguments.
func (e *Engine) recycle(id int32) {
	ev := e.at(id)
	ev.gen++
	ev.afn = nil
	ev.arg = nil
	e.freeIDs = append(e.freeIDs, id)
}

// Cancel voids a scheduled event. Cancelling an already-fired,
// already-cancelled, or zero handle is a no-op and returns false — the
// generation check makes a stale handle harmless even after its record has
// been reissued. The queue entry is dropped lazily when it surfaces; if
// cancelled entries come to dominate the queue, it is compacted.
func (e *Engine) Cancel(h Handle) bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return false
	}
	// Void the record but keep it out of the pool: its queue entry still
	// references it and will release it when popped.
	ev.gen++
	ev.afn = nil
	ev.arg = nil
	e.live--
	e.dead++
	if e.dead > 64 && e.dead > len(e.queue)/2 {
		e.compact()
	}
	return true
}

// compact removes every cancelled entry from the queue and restores the
// heap invariant. Pop order depends only on the (time, seq) total order, so
// rebuilding the heap layout cannot change dispatch order.
func (e *Engine) compact() {
	q := e.queue[:0]
	for _, en := range e.queue {
		if en.gen == e.at(en.id).gen {
			q = append(q, en)
		} else {
			e.recycle(en.id)
		}
	}
	e.queue = q
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
	e.dead = 0
}

// settled reports whether the heap's top can be read as it stands: it is
// live, or the heap is empty.
func (e *Engine) settled() bool {
	return len(e.queue) == 0 || e.queue[0].gen == e.at(e.queue[0].id).gen
}

// settle discards cancelled entries at the top of the heap.
func (e *Engine) settle() {
	for len(e.queue) > 0 && e.queue[0].gen != e.at(e.queue[0].id).gen {
		e.dead--
		e.recycle(e.queue.pop().id)
	}
}

// staticFirst reports whether the earliest pending event is the head of
// the static source's top run rather than the heap's top. The queue must
// be settled.
func (e *Engine) staticFirst() bool {
	if len(e.heads) == 0 {
		return false
	}
	if len(e.queue) == 0 {
		return true
	}
	s, q := &e.src[e.heads[0]], &e.queue[0]
	return before(s.time, s.seq, q.time, q.seq)
}

// runContinues reports whether the static event after position pos
// belongs to pos's run.
func (e *Engine) runContinues(pos int32) bool {
	next := int(pos) + 1
	return next < len(e.src) && e.src[next].time >= e.src[pos].time
}

// advanceStatic moves the top run's cursor past its head, dropping the
// run when it is exhausted. A lone run needs no sift.
func (e *Engine) advanceStatic() {
	h := e.heads
	if pos := h[0]; e.runContinues(pos) {
		h[0] = pos + 1
	} else {
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		e.heads = h
	}
	if len(h) > 1 {
		e.siftDownHead(0)
	}
}

// before reports whether the event keyed (at, as) dispatches before the
// one keyed (bt, bs).
func before(at Time, as uint64, bt Time, bs uint64) bool {
	return at < bt || (at == bt && as < bs)
}

// Step dispatches the single earliest pending event and advances the clock
// to its timestamp. It returns false when no events remain.
func (e *Engine) Step() bool {
	if !e.settled() {
		e.settle()
	}
	if e.staticFirst() {
		s := e.src[e.heads[0]]
		e.advanceStatic()
		e.now = s.time
		e.stepped++
		e.live--
		e.onStatic(e.now, s.kind, int(s.idx))
		return true
	}
	if len(e.queue) == 0 {
		return false
	}
	en := e.queue.pop()
	ev := e.at(en.id)
	e.now = en.time
	e.stepped++
	e.live--
	afn, arg := ev.afn, ev.arg
	// Recycle before invoking: the record is reusable by events the
	// handler schedules, and the generation bump voids the fired event's
	// handles.
	e.recycle(en.id)
	afn(e.now, arg)
	return true
}

// StepTimestamp dispatches every event that shares the earliest pending
// timestamp, including events scheduled *at that same timestamp* by the
// handlers themselves. It returns the timestamp and true, or (0, false) if
// no events were pending. This is the granularity at which the scheduler is
// re-invoked: once per distinct simulated instant.
func (e *Engine) StepTimestamp() (Time, bool) {
	t, ok := e.PeekTime()
	if !ok {
		return 0, false
	}
	for {
		tt, ok := e.PeekTime()
		if !ok || tt != t {
			return t, true
		}
		e.Step()
	}
}

// PeekTime returns the timestamp of the earliest pending event, pruning
// any cancelled entries that have reached the top of the queue.
func (e *Engine) PeekTime() (Time, bool) {
	if !e.settled() {
		e.settle()
	}
	if e.staticFirst() {
		return e.src[e.heads[0]].time, true
	}
	if len(e.queue) > 0 {
		return e.queue[0].time, true
	}
	return 0, false
}

// Run dispatches events until the queue is empty and returns the final
// clock value.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil dispatches events with timestamps <= deadline and then stops,
// leaving later events pending. The clock is left at the last dispatched
// event (it does not jump to the deadline).
func (e *Engine) RunUntil(deadline Time) {
	for {
		t, ok := e.PeekTime()
		if !ok || t > deadline {
			return
		}
		e.Step()
	}
}

// PendingEvent describes one live scheduled event, for state capture. For
// a heap event, Arg is the AtArg argument and Handle identifies the event
// so callers can match it against handles they retained (e.g. a completion
// table). For a static event, Kind is its nonzero StaticKind and Index the
// index it was registered with; Handle and Arg are zero. Ordering in the
// slice returned by PendingInOrder is dispatch order.
type PendingEvent struct {
	Handle Handle
	Time   Time
	Arg    any
	Kind   StaticKind
	Index  int
}

// PendingInOrder returns every live (uncancelled, unfired) event in the
// exact order the engine would dispatch them: ascending (time, seq) over
// the heap and the static source together. It is the capture half of a
// snapshot: a caller that re-schedules equivalent events into a fresh
// engine in this order reproduces the dispatch order exactly, because seq
// numbers are assigned monotonically at scheduling time.
func (e *Engine) PendingInOrder() []PendingEvent {
	// Key every live heap entry and every static event left in a run's
	// remainder, the latter by its negated source position, then sort.
	keys := make([]entry, 0, e.live)
	for _, en := range e.queue {
		if en.gen == e.at(en.id).gen {
			keys = append(keys, en)
		}
	}
	for _, pos := range e.heads {
		for ; ; pos++ {
			s := &e.src[pos]
			keys = append(keys, entry{time: s.time, seq: s.seq, id: -1 - pos})
			if !e.runContinues(pos) {
				break
			}
		}
	}
	slices.SortFunc(keys, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.seq, b.seq))
	})
	out := make([]PendingEvent, len(keys))
	for i, k := range keys {
		if k.id < 0 {
			s := &e.src[-1-k.id]
			out[i] = PendingEvent{Time: s.time, Kind: s.kind, Index: int(s.idx)}
			continue
		}
		ev := e.at(k.id)
		out[i] = PendingEvent{Handle: Handle{ev, ev.gen}, Time: k.time, Arg: ev.arg}
	}
	return out
}

// RestoreClock primes the engine with the clock and dispatch counter of a
// captured run, the restore half of a snapshot. The intended sequence on a
// fresh engine is: re-schedule the captured pending events in
// PendingInOrder order (all of them land at times >= the captured now),
// then RestoreClock. Restoring onto an engine whose clock has already
// advanced past now is a caller bug and panics, as is any pending event,
// heap or static, before now.
func (e *Engine) RestoreClock(now Time, dispatched uint64) {
	if e.now > now {
		panic(fmt.Sprintf("simkit: RestoreClock(%d) with clock already at %d", now, e.now))
	}
	for _, en := range e.queue {
		if en.gen == e.at(en.id).gen && en.time < now {
			panic(fmt.Sprintf("simkit: RestoreClock(%d) with event pending at %d", now, en.time))
		}
	}
	// A run ascends from its head, so the heads are the earliest static
	// events still pending.
	for _, pos := range e.heads {
		if t := e.src[pos].time; t < now {
			panic(fmt.Sprintf("simkit: RestoreClock(%d) with event pending at %d", now, t))
		}
	}
	e.now = now
	e.stepped = dispatched
}

// entry is one queue slot. It embeds the ordering key so heap comparisons
// never chase the event record, and carries the generation the event was
// scheduled with so a cancelled record (generation moved on) is
// recognizable when the entry surfaces. Entries hold the record's arena id
// rather than a pointer, keeping the queue pointer-free.
type entry struct {
	time Time
	seq  uint64
	gen  uint64
	id   int32
}

// eventHeap is a min-heap on (time, seq), implemented directly (no
// container/heap) so push and pop stay monomorphic. seq is unique across
// all entries, so the pop order is a total order independent of the heap's
// internal layout.
type eventHeap []entry

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

// siftUp and siftDown shift a hole instead of swapping: the displaced
// entry is held in a register and written exactly once at its final slot,
// halving the memory traffic of the swap formulation. The comparisons are
// the same (time, seq) order as less; seq uniqueness makes ties
// impossible, so strict comparisons suffice.
func (h eventHeap) siftUp(i int) {
	en := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if p.time < en.time || (p.time == en.time && p.seq < en.seq) {
			break
		}
		h[i] = p
		i = parent
	}
	h[i] = en
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	en := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		lt, ls := h[left].time, h[left].seq
		if right := left + 1; right < n {
			if h[right].time < lt || (h[right].time == lt && h[right].seq < ls) {
				least = right
				lt, ls = h[right].time, h[right].seq
			}
		}
		if en.time < lt || (en.time == lt && en.seq < ls) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = en
}

func (h *eventHeap) push(en entry) {
	*h = append(*h, en)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap) pop() entry {
	old := *h
	n := len(old) - 1
	en := old[0]
	old[0] = old[n]
	*h = old[:n]
	if n > 1 {
		(*h).siftDown(0)
	}
	return en
}

// headBefore reports whether the run cursor at heads[i] points at an
// earlier event than the one at heads[j].
func (e *Engine) headBefore(i, j int) bool {
	a, b := &e.src[e.heads[i]], &e.src[e.heads[j]]
	return before(a.time, a.seq, b.time, b.seq)
}

// siftUpHead and siftDownHead keep heads a min-heap on its cursors'
// (time, seq). It holds one cursor per run, a handful for a replayed
// trace, so plain swaps serve.
func (e *Engine) siftUpHead(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.headBefore(i, parent) {
			return
		}
		e.heads[i], e.heads[parent] = e.heads[parent], e.heads[i]
		i = parent
	}
}

func (e *Engine) siftDownHead(i int) {
	n := len(e.heads)
	for {
		least := 2*i + 1
		if least >= n {
			return
		}
		if right := least + 1; right < n && e.headBefore(right, least) {
			least = right
		}
		if !e.headBefore(least, i) {
			return
		}
		e.heads[i], e.heads[least] = e.heads[least], e.heads[i]
		i = least
	}
}
