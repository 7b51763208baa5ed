package sched

import "elastisched/internal/job"

// consCore is the persistent scheduling state shared by CONS and CONS-D.
//
// base is a capacity profile of the running jobs only, kept current across
// cycles by the engine's Stateful feed (start/finish/retime/resize) instead
// of being rebuilt from the active list every cycle. cur is base plus the
// plan's reservations, built into retained arrays so a steady-state cycle
// allocates nothing. The plan is what the last clean pass reserved: the
// reservation times of the batch queue's prefix in queue order (plan), and
// with CONS-D the dedicated pins, one per dedicated-queue job.
//
// Three reductions keep the cycle cheap:
//
//   - Settled skip: a clean pass is a fixed point. Re-running it against
//     unchanged state, every started job's capacity is already in base at
//     exactly the reservation the pass granted, so every remaining job
//     receives the identical reservation and nothing new starts. The
//     engine's mandatory verification cycle — half of all cycles — reduces
//     to a flag check.
//
//   - Demand-driven stop: the pass fits jobs in queue order only up to the
//     last job that can still start now. Within a pass, reservations only
//     lower the profile, so a job that cannot start now given the
//     reservations made so far never becomes able to; and fitReserve
//     returns now exactly when CanPlace(now) holds. The reservations of the
//     jobs behind the last candidate therefore constrain no start.
//
//   - Plan reuse: conservative backfilling keeps its reservations until
//     something invalidates them. The plan survives the deltas that leave
//     every planned window feasible and earliest — completions at their
//     kill-by time, the plan's own starts, batch arrivals at the queue's
//     tail, a dedicated arrival pinned last on top of cur, and the due move
//     of an on-time head pin — and the next pass starts the planned jobs
//     reserved at now, then resumes fitting behind the prefix. Every other
//     delta drops the plan, and the next pass replans from base.
//
// DESIGN.md §9 gives the validity argument for each kept delta.
type consCore struct {
	DeltaTracker
	base      Profile // running jobs only, delta-maintained
	baseValid bool    // base reflects the current running set
	cur       Profile // base + the plan's reservations

	plan   []int64   // reservation times of the batch queue's prefix, in queue order
	prefix queueMark // the batch-queue prefix plan covers
	pins   queueMark // the dedicated queue, pinned in cur (CONS-D)
	// planned: plan and pins are cur's reservations on top of base, each
	// the earliest a full pass would grant. Only a clean pass with a live
	// feed sets it.
	planned bool
	onTime  bool // every pin sits at its ReqStart
	ded     bool // the pass pins dedicated jobs (CONS-D)
}

// queueMark fingerprints the jobs at the front of a queue the plan covers:
// how many, and the first and last of them. It guards plan reuse against a
// queue mutation no delta announced.
type queueMark struct {
	n           int
	first, last *job.Job
}

func markOf(jobs []*job.Job, n int) queueMark {
	if n == 0 {
		return queueMark{}
	}
	return queueMark{n, jobs[0], jobs[n-1]}
}

// covers reports whether jobs still starts with the marked jobs.
func (m queueMark) covers(jobs []*job.Job) bool {
	return m.n <= len(jobs) && (m.n == 0 || jobs[0] == m.first && jobs[m.n-1] == m.last)
}

// ResetDeltas implements Stateful; the rebuild-on-restore rule lives here.
func (c *consCore) ResetDeltas() {
	c.DeltaTracker.ResetDeltas()
	c.baseValid = false
	c.planned = false
}

// JobArrived implements Stateful. A batch arrival joins the queue's tail,
// behind the plan. A dedicated arrival keeps the plan only when it sorts
// last among the pins and fits on top of cur at its ReqStart: a full pass
// pins it there too, and the planned windows, still feasible with it,
// stay the earliest on a profile that only got lower. A rigid batch
// arrival takes the queue's head and drops the plan.
func (c *consCore) JobArrived(j *job.Job, now int64) {
	c.settled = false
	switch {
	case !c.planned:
	case j.Class == job.Dedicated:
		if !c.ded || j.ReqStart < now ||
			(c.pins.n > 0 && job.DedicatedBefore(j, c.pins.last)) ||
			!c.cur.CanPlace(j.ReqStart, j.Dur, j.Size) {
			c.planned = false
			return
		}
		c.cur.Reserve(j.ReqStart, j.ReqStart+j.Dur, j.Size)
		if c.pins.n == 0 {
			c.pins.first = j
		}
		c.pins.n++
		c.pins.last = j
	case j.Rigid:
		c.planned = false
	}
}

// JobStarted implements Stateful: the new running job claims capacity up
// to its kill-by time. Starts are always the policy's own, made by the
// pass that settles, so they do not unsettle; cur already holds the
// started job's reservation.
func (c *consCore) JobStarted(j *job.Job, now int64) {
	if c.baseValid {
		c.base.Reserve(now, j.EndTime, j.Size)
	}
	if j.EndTime != now+j.Dur {
		c.planned = false
	}
}

// JobFinished implements Stateful: the remainder of the job's capacity
// claim is handed back. A completion at the kill-by time hands back
// nothing, so the plan holds; an early one frees capacity the plan's
// reservations could move into.
func (c *consCore) JobFinished(j *job.Job, now int64) {
	if c.baseValid {
		c.base.Release(now, j.EndTime, j.Size)
	}
	c.settled = false
	if j.EndTime != now {
		c.planned = false
	}
}

// JobRetimed implements Stateful: only the window between the old and new
// kill-by times changes hands.
func (c *consCore) JobRetimed(j *job.Job, oldEnd, now int64) {
	if c.baseValid {
		switch newEnd := j.EndTime; {
		case newEnd > oldEnd:
			c.base.Reserve(oldEnd, newEnd, j.Size)
		case newEnd < oldEnd:
			c.base.Release(newEnd, oldEnd, j.Size)
		}
	}
	c.settled = false
	c.planned = false
}

// JobResized implements Stateful: the size delta applies from now to the
// job's (unchanged) kill-by time.
func (c *consCore) JobResized(j *job.Job, oldSize int, now int64) {
	if c.baseValid {
		if j.Size > oldSize {
			c.base.Reserve(now, j.EndTime, j.Size-oldSize)
		} else if j.Size < oldSize {
			c.base.Release(now, j.EndTime, oldSize-j.Size)
		}
	}
	c.settled = false
	c.planned = false
}

// QueueChanged implements Stateful: a queued job's requirements changed
// under its reservation.
func (c *consCore) QueueChanged() {
	c.settled = false
	c.planned = false
}

// JobKilled implements Stateful: like a completion, the remainder of the
// victim's capacity claim is handed back — the failure that killed it
// additionally fires CapacityChanged, which rebuilds base anyway, but the
// release keeps base exact for any kill delivered on its own.
func (c *consCore) JobKilled(j *job.Job, now int64) {
	if c.baseValid {
		c.base.Release(now, j.EndTime, j.Size)
	}
	c.settled = false
	c.planned = false
}

// CapacityChanged implements Stateful. The paper-mandated fallback: base
// was built against the old in-service machine size, and a shrink under
// existing reservations cannot be patched soundly (the profile has no
// notion of which future windows lose capacity), so base is dropped and
// the next cycle rebuilds it from the Context.
func (c *consCore) CapacityChanged(now int64) {
	c.baseValid = false
	c.settled = false
	c.planned = false
}

// dueMoved keeps the plan across MoveDueDedicated's move of the head pin h
// to the batch queue's head. With every pin on time and h due at now, a
// full pass pins the rest where they were (a profile without h is higher),
// and then fits h at now, where it sat beside them: h becomes the plan's
// first entry. A late pin could move either way, so it drops the plan.
func (c *consCore) dueMoved(ctx *Context, h *job.Job) {
	if !c.planned || !c.onTime || c.pins.first != h || h.ReqStart != ctx.Now {
		c.planned = false
		return
	}
	c.plan = append(c.plan, 0)
	copy(c.plan[1:], c.plan)
	c.plan[0] = ctx.Now
	c.prefix.n++
	c.prefix.first = h
	if c.prefix.n == 1 {
		c.prefix.last = h
	}
	c.pins.n--
	c.pins.first = ctx.Dedicated.Head()
	if c.pins.n == 0 {
		c.pins.last = nil
	}
}

// pass runs one conservative scheduling cycle: every waiting job up to the
// last one that can still start now gets a reservation at its earliest
// feasible start given all earlier jobs' reservations, and starts if that
// reservation is now. With pinDedicated, pending dedicated jobs reserve
// first at their requested start times (degrading to earliest-feasible
// when infeasible, mirroring the unavoidable delay of Algorithm 2 lines
// 24-30).
//
// A valid plan stands in for the fits of the prefix it covers: the pass
// starts the planned jobs reserved at now and resumes fitting behind them.
func (c *consCore) pass(ctx *Context, pinDedicated bool) {
	if c.CanSkip(ctx) {
		return
	}
	c.ded = pinDedicated
	stalled := false
	if !c.resume(ctx) {
		stalled = c.replan(ctx)
	}
	prof := &c.cur
	M := ctx.M()
	clean := true

	// Start the planned jobs reserved at now, in queue order. Entry k of
	// the plan is the job at position w of the queue, where w counts the
	// entries before k still queued.
	jobs := ctx.Batch.Jobs()
	w := 0
	for _, at := range c.plan {
		if at == ctx.Now {
			if ctx.Start(jobs[w]) {
				jobs = ctx.Batch.Jobs()
				continue
			}
			clean = false
		}
		c.plan[w] = at
		w++
	}
	c.plan = c.plan[:w]

	// Walk the queue in place behind the plan. Start removes the started
	// job with order preserved, so after a start the next job has shifted
	// into the current index; compensating with i-- visits each job exactly
	// once in queue order without a per-cycle queue snapshot.
	//
	// next is the demand cursor: the first position at or after i whose job
	// could still start now given the reservations made so far. Since they
	// only lower the profile, a job the cursor passes over stays unable to
	// start, so the cursor only moves forward, only the job under it can
	// start, and once it runs off the queue nothing behind i can start.
	//
	// Free capacity at this instant, maintained incrementally: only a
	// reservation at now itself can lower it.
	freeNow := prof.FreeAt(ctx.Now)
	for i, next := w, w; ; i++ {
		if next < i {
			next = i
		}
		for next < len(jobs) && !(jobs[next].Size <= freeNow && prof.CanPlace(ctx.Now, jobs[next].Dur, jobs[next].Size)) {
			next++
		}
		if next == len(jobs) {
			break
		}
		j := jobs[i]
		if j.Size > M {
			// The job outsizes the in-service machine (node-group outage).
			// Conservative backfilling forbids later jobs from delaying it,
			// and no reservation can be computed without knowing the repair
			// time, so the pass stalls here until CapacityChanged replans.
			stalled = true
			break
		}
		at := prof.fitReserve(ctx.Now, j.Dur, j.Size)
		if at == ctx.Now {
			freeNow -= j.Size
			if ctx.Start(j) {
				jobs = ctx.Batch.Jobs()
				i--
				continue
			}
			// The machine refused a capacity-feasible start (fragmentation
			// under contiguous allocation); the profile cannot see placement
			// constraints, so the pass is no fixed point.
			clean = false
		}
		c.plan = append(c.plan, at)
	}
	if clean {
		c.Settle(EveryRetime)
	} else {
		c.settled = false
	}
	c.planned = clean && !stalled && c.live
	c.prefix = markOf(jobs, len(c.plan))
}

// resume readies a valid plan for this pass: base and cur advance to now,
// after checking that the plan still covers the batch queue's prefix and,
// with pins, the whole dedicated queue, and that no planned start has
// passed. It reports false when there is no plan to resume.
func (c *consCore) resume(ctx *Context) bool {
	if !c.planned || !c.prefix.covers(ctx.Batch.Jobs()) {
		return false
	}
	if c.ded && (c.pins.n != ctx.Dedicated.Len() || !c.pins.covers(ctx.Dedicated.Jobs())) {
		return false
	}
	for _, at := range c.plan {
		if at < ctx.Now {
			return false
		}
	}
	c.base.Advance(ctx.Now)
	c.cur.Advance(ctx.Now)
	return true
}

// replan empties the plan and makes cur the pass's starting profile: a
// copy of the delta-maintained base when the engine feeds deltas, a
// from-scratch rebuild otherwise (standalone use, or the first cycle after
// Load or restore-from-snapshot), with the dedicated pins reserved on top.
// It reports whether a dedicated job outsizes the machine and went
// unpinned, which leaves cur no plan to keep.
func (c *consCore) replan(ctx *Context) (unpinned bool) {
	if c.live {
		if !c.baseValid {
			c.base.Rebuild(ctx.Now, ctx.M(), ctx.Active)
			c.baseValid = true
		} else {
			c.base.Advance(ctx.Now)
		}
		c.cur.CopyFrom(&c.base)
	} else {
		c.cur.Rebuild(ctx.Now, ctx.M(), ctx.Active)
	}
	c.plan = c.plan[:0]
	c.onTime = true
	c.pins = queueMark{}
	if !c.ded {
		return false
	}
	M := ctx.M()
	ded := ctx.Dedicated.Jobs()
	for _, d := range ded {
		if d.Size > M {
			// Larger than the in-service machine (a node-group outage):
			// no reservation is possible until a repair restores
			// capacity, which drops the plan via CapacityChanged.
			unpinned = true
			continue
		}
		at := d.ReqStart
		if !c.cur.CanPlace(at, d.Dur, d.Size) {
			at = c.cur.EarliestFit(at, d.Dur, d.Size)
		}
		c.onTime = c.onTime && at == d.ReqStart
		c.cur.Reserve(at, at+d.Dur, d.Size)
	}
	c.pins = markOf(ded, len(ded))
	return unpinned
}

// Conservative is conservative backfilling: every waiting job gets a
// reservation at its earliest feasible start given all earlier jobs'
// reservations; a job starts now only if its reservation is now. Unlike
// EASY, no start may delay *any* earlier-arrived job.
//
// The zero value is ready to use. The policy carries persistent scratch
// state (the delta-maintained capacity base); like every policy, a fresh
// instance is required per run and instances must not be shared.
type Conservative struct {
	consCore
}

// Name implements Scheduler.
func (*Conservative) Name() string { return "CONS" }

// Heterogeneous implements Scheduler; conservative is batch-only here.
func (*Conservative) Heterogeneous() bool { return false }

// Schedule runs the conservative pass over the batch queue.
func (c *Conservative) Schedule(ctx *Context) {
	c.pass(ctx, false)
}
