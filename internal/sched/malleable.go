package sched

import (
	"errors"

	"elastisched/internal/job"
)

// Resize is a scheduler-initiated resize proposal: grow or shrink the
// running malleable job to NewSize processors. The engine validates the
// proposal against the job's bounds and the machine before applying it;
// an unapplicable proposal (contiguous fragmentation) is dropped without
// effect.
type Resize struct {
	Job     *job.Job
	NewSize int
}

// Malleable is the optional runtime-elasticity extension of Scheduler.
// After each Schedule call of the fixed-point loop the engine asks a
// malleable policy for resize proposals and applies them through the same
// pipeline that serves client EP/RP commands (work-conserving rescale,
// delta fan-out). The contract mirrors Schedule's idempotence rule:
// at a fixed point — nothing started, no proposal applied — a repeated
// call must return no proposals, or the engine's cycle loop will not
// terminate.
//
// Policies only see proposals for jobs with malleable bounds
// (job.Malleable()); the engine rejects proposals outside the job's
// admitted [MinProcs, MaxProcs] window, for dedicated jobs, and for
// jobs holding failed or draining node groups.
type Malleable interface {
	Scheduler
	ProposeResizes(ctx *Context) []Resize
}

// AutoResize is a decorator that adds a generic malleability policy to any
// Scheduler, so every registry algorithm gets a "-M" variant comparable
// head-to-head with its rigid base. The policy is deliberately simple and
// work-conserving:
//
//   - Shrink to admit: when the head of the batch queue cannot start for
//     lack of free processors, shrink running malleable batch jobs —
//     largest shrinkable reserve first, ties by job ID — but only if the
//     total shrinkable capacity actually covers the head's deficit
//     (shrinking without admitting anyone would only stretch runtimes).
//   - Expand when idle: when both waiting queues are empty and processors
//     sit free, grow running malleable jobs back toward MaxProcs in job-ID
//     order, so capacity freed by completions is reabsorbed instead of
//     idling.
//
// Both rules propose nothing when their trigger is absent, which makes the
// decorator fixed-point safe: after a successful shrink the head fits (the
// deficit is gone), and after an expansion round every malleable job is at
// its feasible maximum.
//
// Both rules read MinProcs and MaxProcs as the engine admitted them:
// multiples of the allocation unit with MinProcs <= Size <= MaxProcs, an
// invariant every resize path keeps. The decorator never re-quantizes.
//
// Scheduling itself is delegated to the wrapped policy unchanged. The
// decorator forwards the Stateful delta feed and the Snapshotter state
// contract to the inner policy when it implements them, so CONS-M keeps
// CONS's incremental profile and restore behaviour.
//
// The decorator also reads the feed itself. Both rules depend only on the
// queues, free and in-service capacity, and the running jobs' sizes,
// bounds and health — never on end times or the clock. So once a cycle
// that made no progress yields no proposal, the decorator goes quiet: it
// returns nil without rescanning until a forwarded delta other than
// JobRetimed arrives, or a cycle makes progress (moving a due dedicated
// job sends no delta). Without a live feed it never goes quiet.
type AutoResize struct {
	Inner Scheduler

	// live is set once the engine arms the delta feed (ResetDeltas); quiet
	// marks the fixed point described above.
	live, quiet bool

	// scratch for candidate collection and proposal assembly, retained
	// across cycles so the hot path stays allocation-free. Both backing
	// arrays hold *job.Job pointers from the previous cycle until the next
	// call clears them (see clearScratch).
	cand []*job.Job
	out  []Resize
}

// NewAutoResize wraps inner with the generic malleability policy.
func NewAutoResize(inner Scheduler) *AutoResize {
	return &AutoResize{Inner: inner}
}

// Name implements Scheduler: the wrapped policy's name with a "-M" suffix.
func (a *AutoResize) Name() string { return a.Inner.Name() + "-M" }

// Heterogeneous implements Scheduler by delegation.
func (a *AutoResize) Heterogeneous() bool { return a.Inner.Heterogeneous() }

// Schedule implements Scheduler by delegation.
func (a *AutoResize) Schedule(ctx *Context) { a.Inner.Schedule(ctx) }

// healthy reports whether every node group the job holds is Up — jobs
// touched by an ongoing outage are the fault path's business, not the
// scheduler's.
func healthy(ctx *Context, j *job.Job) bool {
	return ctx.Machine.AllUp(j.ID)
}

// ProposeResizes implements Malleable with the shrink-to-admit /
// expand-when-idle policy described on AutoResize. The returned slice is
// scratch reused by the next call: the engine consumes proposals before
// re-invoking the policy, and callers must not retain it.
func (a *AutoResize) ProposeResizes(ctx *Context) []Resize {
	if a.quiet && !ctx.Progress {
		return nil
	}
	a.clearScratch()
	var out []Resize
	if head := ctx.Batch.Head(); head != nil {
		out = a.shrinkToAdmit(ctx, head)
	} else if ctx.Dedicated.Len() == 0 {
		out = a.expandIdle(ctx)
	}
	a.quiet = a.live && !ctx.Progress && len(out) == 0
	return out
}

// clearScratch drops the job pointers the scratch backing arrays retained
// from the previous cycle, so finished workloads are not pinned in memory
// for the life of the decorator.
func (a *AutoResize) clearScratch() {
	cand := a.cand[:cap(a.cand)]
	for i := range cand {
		cand[i] = nil
	}
	out := a.out[:cap(a.out)]
	for i := range out {
		out[i].Job = nil
	}
}

// shrinkToAdmit proposes shrinks that free exactly enough capacity for the
// blocked batch head, or nothing if the reachable reserve cannot cover it.
func (a *AutoResize) shrinkToAdmit(ctx *Context, head *job.Job) []Resize {
	unit := ctx.Machine.Unit()
	deficit := head.Size - ctx.Free()
	if deficit <= 0 || head.Size > ctx.M() {
		// The head fits already (contiguous fragmentation is the machine's
		// problem, not a capacity one), or it outsizes the in-service
		// machine — shrinking others cannot help either way.
		return nil
	}

	cand := a.cand[:0]
	reserve := 0
	for _, j := range ctx.Active.Jobs() {
		if j.Class != job.Batch || !j.Malleable() {
			continue
		}
		if r := j.Size - j.MinProcs; r > 0 && healthy(ctx, j) {
			cand = append(cand, j)
			reserve += r
		}
	}
	a.cand = cand
	if reserve < deficit {
		return nil
	}

	// Largest shrinkable reserve first, ties by job ID: fewest victims.
	sortByReserve(cand)

	out := a.out[:0]
	for _, j := range cand {
		if deficit <= 0 {
			break
		}
		take := j.Size - j.MinProcs
		if take > deficit {
			// Only give up what the head still needs, in whole groups.
			take = ((deficit + unit - 1) / unit) * unit
		}
		out = append(out, Resize{Job: j, NewSize: j.Size - take})
		deficit -= take
	}
	a.out = out
	return out
}

// expandIdle proposes grows that spread the machine's free capacity over
// running malleable jobs, in job-ID order, each capped at its MaxProcs.
func (a *AutoResize) expandIdle(ctx *Context) []Resize {
	free := ctx.Free()
	if free <= 0 {
		return nil
	}
	unit := ctx.Machine.Unit()

	cand := a.cand[:0]
	for _, j := range ctx.Active.Jobs() {
		if j.Class != job.Batch || !j.Malleable() {
			continue
		}
		if j.Size < j.MaxProcs && healthy(ctx, j) {
			cand = append(cand, j)
		}
	}
	a.cand = cand
	if len(cand) == 0 {
		return nil
	}
	sortByID(cand)

	out := a.out[:0]
	for _, j := range cand {
		if free < unit {
			break
		}
		grow := j.MaxProcs - j.Size
		if grow > free {
			grow = (free / unit) * unit
		}
		if grow <= 0 {
			continue
		}
		out = append(out, Resize{Job: j, NewSize: j.Size + grow})
		free -= grow
	}
	a.out = out
	return out
}

// sortByReserve orders jobs by shrinkable reserve descending, ties by ID
// ascending. Insertion sort: candidate sets are a handful of jobs.
func sortByReserve(jobs []*job.Job) {
	for i := 1; i < len(jobs); i++ {
		j := jobs[i]
		rj := j.Size - j.MinProcs
		k := i - 1
		for k >= 0 {
			rk := jobs[k].Size - jobs[k].MinProcs
			if rk > rj || (rk == rj && jobs[k].ID < j.ID) {
				break
			}
			jobs[k+1] = jobs[k]
			k--
		}
		jobs[k+1] = j
	}
}

// sortByID orders jobs by ID ascending.
func sortByID(jobs []*job.Job) {
	for i := 1; i < len(jobs); i++ {
		j := jobs[i]
		k := i - 1
		for k >= 0 && jobs[k].ID > j.ID {
			jobs[k+1] = jobs[k]
			k--
		}
		jobs[k+1] = j
	}
}

// ResetDeltas implements Stateful by forwarding to the inner policy when
// it participates in the delta contract. It also drops the proposal
// scratch's retained job pointers: a reset marks a session (re)start, after
// which the previous workload's jobs must be collectable.
func (a *AutoResize) ResetDeltas() {
	a.clearScratch()
	a.live, a.quiet = true, false
	if s, ok := a.Inner.(Stateful); ok {
		s.ResetDeltas()
	}
}

// JobArrived implements Stateful by forwarding.
func (a *AutoResize) JobArrived(j *job.Job, now int64) {
	a.quiet = false
	if s, ok := a.Inner.(Stateful); ok {
		s.JobArrived(j, now)
	}
}

// JobStarted implements Stateful by forwarding.
func (a *AutoResize) JobStarted(j *job.Job, now int64) {
	a.quiet = false
	if s, ok := a.Inner.(Stateful); ok {
		s.JobStarted(j, now)
	}
}

// JobFinished implements Stateful by forwarding.
func (a *AutoResize) JobFinished(j *job.Job, now int64) {
	a.quiet = false
	if s, ok := a.Inner.(Stateful); ok {
		s.JobFinished(j, now)
	}
}

// JobRetimed implements Stateful by forwarding. A retime leaves the
// decorator quiet: neither resize rule reads end times.
func (a *AutoResize) JobRetimed(j *job.Job, oldEnd, now int64) {
	if s, ok := a.Inner.(Stateful); ok {
		s.JobRetimed(j, oldEnd, now)
	}
}

// JobResized implements Stateful by forwarding.
func (a *AutoResize) JobResized(j *job.Job, oldSize int, now int64) {
	a.quiet = false
	if s, ok := a.Inner.(Stateful); ok {
		s.JobResized(j, oldSize, now)
	}
}

// QueueChanged implements Stateful by forwarding.
func (a *AutoResize) QueueChanged() {
	a.quiet = false
	if s, ok := a.Inner.(Stateful); ok {
		s.QueueChanged()
	}
}

// JobKilled implements Stateful by forwarding.
func (a *AutoResize) JobKilled(j *job.Job, now int64) {
	a.quiet = false
	if s, ok := a.Inner.(Stateful); ok {
		s.JobKilled(j, now)
	}
}

// CapacityChanged implements Stateful by forwarding.
func (a *AutoResize) CapacityChanged(now int64) {
	a.quiet = false
	if s, ok := a.Inner.(Stateful); ok {
		s.CapacityChanged(now)
	}
}

// SnapshotState implements Snapshotter by forwarding; a stateless inner
// policy round-trips as nil state, matching the engine's handling of
// non-Snapshotter schedulers.
func (a *AutoResize) SnapshotState() ([]byte, error) {
	if s, ok := a.Inner.(Snapshotter); ok {
		return s.SnapshotState()
	}
	return nil, nil
}

// RestoreState implements Snapshotter by forwarding.
func (a *AutoResize) RestoreState(b []byte) error {
	if s, ok := a.Inner.(Snapshotter); ok {
		return s.RestoreState(b)
	}
	if len(b) != 0 {
		return errNoInnerState
	}
	return nil
}

var errNoInnerState = errors.New("sched: restore state for a stateless wrapped policy")
