// Package sched defines the scheduler interface and the baseline policies
// the paper compares against: FCFS, SJF/LJF (related work, Section II), EASY
// backfilling, conservative backfilling, and the dedicated-queue appendage
// that turns a batch scheduler into its -D variant (EASY-D, LOS-D).
//
// The LOS family (LOS, Delayed-LOS, Hybrid-LOS — the paper's contribution)
// lives in package core and builds on the primitives here.
package sched

import (
	"elastisched/internal/job"
	"elastisched/internal/machine"
)

// Context is the scheduler's view of the system at one scheduling cycle. The
// engine constructs it after every event timestamp and re-invokes Schedule
// until a fixed point (no starts, no queue mutations) is reached.
type Context struct {
	Now       int64
	Machine   *machine.Machine
	Batch     *job.BatchQueue
	Dedicated *job.DedicatedQueue
	Active    *job.ActiveList

	// StartFn allocates the machine, moves the job to the active list and
	// schedules its completion; it returns false when the machine cannot
	// place the job (possible only under contiguous allocation, where
	// fragmentation can defeat a capacity-feasible request). Provided by
	// the engine.
	StartFn func(*job.Job) bool

	// Progress records whether this cycle changed state (started a job or
	// moved a dedicated job); the engine loops until a cycle makes none.
	Progress bool
	// Starts counts jobs started in this cycle.
	Starts int

	// win is Window's reusable scratch buffer. Each Window call overwrites
	// it; callers consume the returned slice before requesting another
	// window, so one buffer per context suffices.
	win []*job.Job
}

// Free returns m, the current number of unallocated processors.
func (c *Context) Free() int { return c.Machine.Free() }

// M returns the machine size the scheduler may plan against: the total
// minus any capacity lost to failed node groups. With no faults injected
// it is the paper's M.
func (c *Context) M() int { return c.Machine.Available() }

// Fits reports whether a job of the given size is placeable right now —
// capacity on scatter machines, a free contiguous run on contiguous ones.
func (c *Context) Fits(size int) bool { return c.Machine.Fits(size) }

// Start dispatches j and removes it from the batch queue. It returns false
// (leaving the job queued) if the machine could not place it.
func (c *Context) Start(j *job.Job) bool {
	if !c.StartFn(j) {
		return false
	}
	c.Batch.Remove(j)
	c.Progress = true
	c.Starts++
	return true
}

// Touch marks queue-shape progress that is not a start (e.g. a dedicated
// job moved to the batch queue) so the engine keeps cycling.
func (c *Context) Touch() { c.Progress = true }

// Scheduler is a scheduling policy. Schedule inspects the context and starts
// zero or more jobs. It must be idempotent at a fixed point: when it can
// start nothing, a repeated call must also start nothing.
type Scheduler interface {
	// Name returns the algorithm name as used in the paper's Table III
	// (e.g. "EASY", "LOS-D", "Delayed-LOS", "Hybrid-LOS").
	Name() string
	// Heterogeneous reports whether the policy manages the dedicated queue.
	// The engine refuses to run a heterogeneous workload on a policy that
	// does not.
	Heterogeneous() bool
	Schedule(ctx *Context)
}

// Snapshotter is the optional state-capture extension of Scheduler, the
// policy half of the engine's session snapshot/restore. A policy that
// carries logical cross-cycle state (anything beyond its configuration and
// per-job fields, which the engine snapshots itself) implements it so a
// restored session resumes with the exact decision state of the captured
// run. The contract:
//
//   - SnapshotState returns a self-contained, self-versioned encoding of
//     the policy's logical state. Pure caches and scratch buffers (the DP
//     bitset and selection buffers) must be EXCLUDED: they are required to
//     be behaviour-neutral, so a restored policy rebuilds them cold. The encoding must survive a byte-for-byte round trip through
//     any transport (the engine stores it opaquely).
//   - RestoreState reinstates state captured by SnapshotState on a freshly
//     constructed policy of the same type and configuration, and rejects
//     encodings it does not recognize.
//
// Logically stateless policies (FCFS, EASY, CONS, and the LOS family)
// simply do not implement the interface and round-trip for free: their
// only cross-cycle state — the behaviour-neutral Scratch buffers, and the
// delta-maintained caches of Stateful policies, which ResetDeltas
// invalidates on restore — is rebuilt cold.
type Snapshotter interface {
	Scheduler
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// Freeze is a reservation constraint pair (freeze end time, freeze end
// capacity) — the paper's (fret, frec), the LOS paper's shadow time and
// extra capacity. A job started now that would still be running at Time
// consumes Capacity; jobs that finish strictly before Time are
// unconstrained by it.
type Freeze struct {
	Time     int64
	Capacity int
}

// Allows reports whether starting j at now respects the freeze.
func (f *Freeze) Allows(now int64, j *job.Job) bool {
	if f == nil {
		return true
	}
	if now+j.Dur < f.Time {
		return true
	}
	return j.Size <= f.Capacity
}

// Commit accounts for starting j at now: if it runs into the freeze window
// it consumes freeze capacity.
func (f *Freeze) Commit(now int64, j *job.Job) {
	if f == nil {
		return
	}
	if now+j.Dur >= f.Time {
		f.Capacity -= j.Size
	}
}

// MoveDueDedicated implements Move_Dedicated_Head_To_Batch_Head (Algorithm
// 3) for the head of the dedicated queue if its requested start time has
// been reached: the job is removed from W^d and pushed onto the head of W^b
// with its skip count forced to cs so the batch scheduler starts it at the
// first opportunity. It returns true if a job was moved.
func MoveDueDedicated(ctx *Context, cs int) bool {
	h := ctx.Dedicated.Head()
	if h == nil || h.ReqStart > ctx.Now {
		return false
	}
	ctx.Dedicated.PopHead()
	h.SCount = cs
	h.Rigid = true
	ctx.Batch.PushFront(h)
	ctx.Touch()
	return true
}

// DedicatedFreeze computes the freeze pair (fret_d, frec_d) protecting the
// earliest pending dedicated reservation, per Algorithm 2 lines 8-30.
//
// When every dedicated job sharing the head's requested start time fits in
// the capacity the machine will have at that time (given currently running
// jobs), the freeze end time is the requested start itself and the freeze
// capacity is what remains after those dedicated jobs are placed; onTime is
// true. Otherwise the dedicated jobs will inevitably start late: the freeze
// moves to the completion of the s-th running job whose release makes the
// dedicated demand fit, and onTime is false.
//
// Precondition: the dedicated queue is non-empty and its head's start time
// is in the future (ctx.Now < head.ReqStart).
func DedicatedFreeze(ctx *Context) (fz Freeze, onTime bool) {
	head := ctx.Dedicated.Head()
	if head == nil {
		panic("sched: DedicatedFreeze with empty dedicated queue")
	}
	now := ctx.Now
	m := ctx.Free()
	M := ctx.M()
	active := ctx.Active.Jobs()

	// Lines 9-15: capacity available at the requested start time,
	// considering only running jobs.
	fret := head.ReqStart
	frec := M
	if last := ctx.Active.Last(); last != nil && fret <= last.EndTime {
		// Find s: first running job still holding processors at fret.
		stillRunning := 0
		for _, a := range active {
			if a.EndTime >= fret {
				stillRunning += a.Size
			}
		}
		frec = M - stillRunning
	}

	// Lines 16-22: do all same-start dedicated jobs fit at fret?
	tot := ctx.Dedicated.TotalAtHeadStart()
	if tot <= frec {
		return Freeze{Time: fret, Capacity: frec - tot}, true
	}

	// Lines 24-30: insufficient capacity at the requested start; the
	// dedicated demand can only be placed once enough running jobs drain.
	cum := m
	for _, a := range active {
		cum += a.Size
		if tot <= cum {
			return Freeze{Time: now + a.Residual(now), Capacity: cum - tot}, false
		}
	}
	// tot exceeds even the whole machine (several same-start dedicated
	// jobs): freeze to the last completion with zero spare capacity. The
	// paper's pseudocode does not reach this case; clamping keeps the
	// invariant frec >= 0.
	fz = Freeze{Time: now, Capacity: 0}
	if last := ctx.Active.Last(); last != nil {
		fz.Time = last.EndTime
	}
	return fz, false
}

// HeadShadow computes the reservation for a head job that does not fit
// now — the paper's (fret, frec) of Algorithm 1 lines 13-15, and EASY's
// shadow time and extra capacity: walking the active list in residual
// order, it finds the first prefix whose release makes the head fit. fret
// is that job's kill-by time; frec is the spare capacity left there after
// the head is placed. ok is false when the head could never fit, which
// happens only while an outage leaves the in-service machine smaller than
// the head.
func HeadShadow(ctx *Context, head *job.Job) (fret int64, frec int, ok bool) {
	cum := ctx.Free()
	for _, a := range ctx.Active.Jobs() {
		cum += a.Size
		if head.Size <= cum {
			return a.EndTime, cum - head.Size, true
		}
	}
	return 0, 0, false
}

// Window returns the DP candidate set at this instant: the first
// `lookahead` batch-queued jobs, in queue order, that fit capacity m AND
// are individually placeable on the machine right now (on contiguous
// machines, fragmentation-blocked jobs are excluded so the packing
// programs do not select unplaceable work). lookahead <= 0 means no limit;
// limiting it to 50 jobs is the LOS paper's complexity containment.
// The returned slice is valid only until the next Window call on this
// context.
func (c *Context) Window(m, lookahead int) []*job.Job {
	out := c.win[:0]
	for _, j := range c.Batch.Jobs() {
		if lookahead > 0 && len(out) >= lookahead {
			break
		}
		if j.Size <= m && c.Fits(j.Size) {
			out = append(out, j)
		}
	}
	c.win = out
	return out
}
