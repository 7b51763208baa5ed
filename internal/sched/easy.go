package sched

import "elastisched/internal/job"

// EASY is aggressive backfilling (Mu'alem & Feitelson): jobs start in FIFO
// order while they fit; when the head blocks, a reservation (shadow time +
// extra capacity) is computed for it from the running jobs' residual times,
// and any later job may jump ahead provided it does not delay that
// reservation.
//
// With Ded set, EASY becomes the paper's EASY-D: dedicated jobs whose
// requested start time has been reached are moved to the head of the queue
// (where EASY's head priority starts them as soon as they fit), and batch
// starts additionally respect a freeze protecting the earliest pending
// dedicated reservation.
type EASY struct {
	// Ded enables the dedicated-queue appendage (EASY-D).
	Ded bool

	// DeltaTracker makes EASY Stateful: its only cross-cycle state is the
	// settled flag and its retime horizon, which let the engine's
	// fixed-point verification pass (and any cycle whose deltas were all
	// absorbed) return in O(1). EASY needs no persistent profile — its
	// shadow reservation is a single (time, capacity) pair recomputed in
	// O(active) when a pass does run.
	DeltaTracker
}

// Name implements Scheduler.
func (e *EASY) Name() string {
	if e.Ded {
		return "EASY-D"
	}
	return "EASY"
}

// Heterogeneous implements Scheduler.
func (e *EASY) Heterogeneous() bool { return e.Ded }

// Schedule runs one EASY cycle. A completed pass that started *nothing*
// and rejected nothing settles: the shadow and dedicated freezes are pure
// functions of queue/active state, and Freeze.Allows only gets stricter as
// now advances, so re-running against unchanged state at any later instant
// still starts nothing — until the engine reports a delta the cycle is
// skipped outright. A pass that did start jobs must not settle: its starts
// change the active set, and the freezes recomputed from it on the
// engine's same-instant verification cycle can move later, admitting a
// candidate this pass rejected (observable with EASY-D, where a backfill
// can flip the dedicated freeze from the on-time to the drain branch).
//
// The settled pass's retime horizon is the head's shadow time: a retime
// strictly on one side of it moves neither the shadow nor its extra
// capacity (see DeltaTracker.Settle). An empty queue or a full machine
// reads no end time at all. EASY-D's dedicated freeze reads end times
// beyond the shadow, so EASY-D settles against every retime.
func (e *EASY) Schedule(ctx *Context) {
	if e.CanSkip(ctx) {
		return
	}
	if e.Ded {
		// Rigid jobs keep FIFO-of-due-time order at the queue head: move one
		// per cycle; the engine's fixed-point loop drains the rest.
		if MoveDueDedicated(ctx, 0) {
			e.settled = false
			return
		}
	}
	var dfz *Freeze
	if e.Ded && !ctx.Dedicated.Empty() {
		f, _ := DedicatedFreeze(ctx)
		dfz = &f
	}

	// Phase 1: start in order while the head fits and respects the freeze.
	clean, started := true, false
	for {
		h := ctx.Batch.Head()
		if h == nil {
			if clean && !started {
				e.settleAt(NoHorizon)
			}
			return
		}
		if !ctx.Fits(h.Size) || !dfz.Allows(ctx.Now, h) {
			break
		}
		if !ctx.Start(h) {
			// The machine rejected a capacity-feasible start (contiguous
			// fragmentation); the settled-pass argument does not hold.
			clean = false
			break
		}
		started = true
		dfz.Commit(ctx.Now, h)
	}

	// Phase 2: the head is blocked; reserve for it and backfill behind it.
	head := ctx.Batch.Head()
	sfz := e.shadowFor(ctx, head, dfz)

	// Start removes the started job from the queue (order preserved, head
	// untouched), so after a start the next candidate has shifted into the
	// current index. Walking by index with that compensation visits each job
	// exactly once in queue order without snapshotting the queue.
	jobs := ctx.Batch.Jobs()
	for i := 1; i < len(jobs); i++ {
		j := jobs[i]
		if !ctx.Fits(j.Size) {
			continue
		}
		if !sfz.Allows(ctx.Now, j) || !dfz.Allows(ctx.Now, j) {
			continue
		}
		if !ctx.Start(j) {
			clean = false
			continue
		}
		started = true
		sfz.Commit(ctx.Now, j)
		dfz.Commit(ctx.Now, j)
		jobs = ctx.Batch.Jobs()
		i--
	}
	if clean && !started {
		h := sfz.Time
		if ctx.Free() <= 0 {
			h = NoHorizon
		}
		e.settleAt(h)
	}
}

// settleAt settles a clean pass with retime horizon h; EASY-D ignores h.
func (e *EASY) settleAt(h int64) {
	if e.Ded {
		h = EveryRetime
	}
	e.Settle(h)
}

// shadowFor computes the head job's reservation: HeadShadow's earliest
// time enough running jobs have drained for it to fit, plus the extra
// capacity left at that time. If the head is blocked only by the dedicated
// freeze (it fits the machine now), its start is pushed to the freeze end;
// the reservation then protects the dedicated demand plus the head.
func (e *EASY) shadowFor(ctx *Context, head *job.Job, dfz *Freeze) Freeze {
	free := ctx.Free()
	if head.Size <= free {
		// Blocked by the dedicated freeze only.
		extra := 0
		if dfz != nil && dfz.Capacity > head.Size {
			extra = dfz.Capacity - head.Size
		}
		t := ctx.Now
		if dfz != nil {
			t = dfz.Time
		}
		return Freeze{Time: t, Capacity: extra}
	}
	if fret, frec, ok := HeadShadow(ctx, head); ok {
		return Freeze{Time: fret, Capacity: frec}
	}
	// The head outsizes the in-service machine (an outage took the
	// capacity it needs): no backfilling past it.
	return Freeze{Time: ctx.Now, Capacity: 0}
}
