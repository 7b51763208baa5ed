package sched

import "elastisched/internal/job"

// consCore is the persistent scheduling state shared by CONS and CONS-D.
//
// base is a capacity profile of the running jobs only, kept current across
// cycles by the engine's Stateful feed (start/finish/retime/resize) instead
// of being rebuilt from the active list every cycle. cur is per-pass
// scratch: base plus the reservations of the pass in progress, built into
// retained arrays so a steady-state cycle allocates nothing.
//
// Two reductions keep the pass cheap:
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
// Every delta other than a start unsettles the policy; base, which the
// deltas patch in place, is the only state carried into the next pass.
type consCore struct {
	DeltaTracker
	base      Profile // running jobs only, delta-maintained
	baseValid bool    // base reflects the current running set
	cur       Profile // per-pass scratch: base + this pass's reservations
}

// ResetDeltas implements Stateful; the rebuild-on-restore rule lives here.
func (c *consCore) ResetDeltas() {
	c.DeltaTracker.ResetDeltas()
	c.baseValid = false
}

// JobStarted implements Stateful: the new running job claims capacity up
// to its kill-by time. Starts are always the policy's own, made by the
// pass that settles, so they do not unsettle.
func (c *consCore) JobStarted(j *job.Job, now int64) {
	if c.baseValid {
		c.base.Reserve(now, j.EndTime, j.Size)
	}
}

// JobFinished implements Stateful: the remainder of the job's capacity
// claim is handed back.
func (c *consCore) JobFinished(j *job.Job, now int64) {
	if c.baseValid {
		c.base.Release(now, j.EndTime, j.Size)
	}
	c.settled = false
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
}

// CapacityChanged implements Stateful. The paper-mandated fallback: base
// was built against the old in-service machine size, and a shrink under
// existing reservations cannot be patched soundly (the profile has no
// notion of which future windows lose capacity), so base is dropped and
// the next cycle rebuilds it from the Context.
func (c *consCore) CapacityChanged(now int64) {
	c.baseValid = false
	c.settled = false
}

// pass runs one conservative scheduling cycle: every waiting job up to the
// last one that can still start now gets a reservation at its earliest
// feasible start given all earlier jobs' reservations, and starts if that
// reservation is now. With pinDedicated, pending dedicated jobs reserve
// first at their requested start times (degrading to earliest-feasible
// when infeasible, mirroring the unavoidable delay of Algorithm 2 lines
// 24-30).
func (c *consCore) pass(ctx *Context, pinDedicated bool) {
	if c.CanSkip(ctx) {
		return
	}
	prof := c.cycleProfile(ctx)
	M := ctx.M()
	if pinDedicated {
		for _, d := range ctx.Dedicated.Jobs() {
			if d.Size > M {
				// Larger than the in-service machine (a node-group outage):
				// no reservation is possible until a repair restores
				// capacity, which unsettles this pass via CapacityChanged.
				continue
			}
			at := d.ReqStart
			if !prof.CanPlace(at, d.Dur, d.Size) {
				at = prof.EarliestFit(at, d.Dur, d.Size)
			}
			prof.Reserve(at, at+d.Dur, d.Size)
		}
	}

	// Walk the queue in place. Start removes the started job with order
	// preserved, so after a start the next job has shifted into the current
	// index; compensating with i-- visits each job exactly once in queue
	// order without a per-cycle queue snapshot.
	//
	// next is the demand cursor: the first position at or after i whose job
	// could still start now given the reservations made so far. Since they
	// only lower the profile, a job the cursor passes over stays unable to
	// start, so the cursor only moves forward, only the job under it can
	// start, and once it runs off the queue nothing behind i can start.
	jobs := ctx.Batch.Jobs()
	// Free capacity at this instant, maintained incrementally: only a
	// reservation at now itself can lower it.
	freeNow := prof.FreeAt(ctx.Now)
	clean := true
	for i, next := 0, 0; ; i++ {
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
			break
		}
		if prof.fitReserve(ctx.Now, j.Dur, j.Size) != ctx.Now {
			continue
		}
		freeNow -= j.Size
		if ctx.Start(j) {
			jobs = ctx.Batch.Jobs()
			i--
		} else {
			// The machine refused a capacity-feasible start (fragmentation
			// under contiguous allocation); the profile cannot see placement
			// constraints, so the pass is no fixed point.
			clean = false
		}
	}
	if clean {
		c.Settle(EveryRetime)
	} else {
		c.settled = false
	}
}

// cycleProfile produces the pass's working profile: a copy of the
// delta-maintained base when the engine feeds deltas, a from-scratch
// rebuild otherwise (standalone use, or the first cycle after Load or
// restore-from-snapshot).
func (c *consCore) cycleProfile(ctx *Context) *Profile {
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
	return &c.cur
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
