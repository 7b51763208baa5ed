package sched

import (
	"math"

	"elastisched/internal/job"
)

// Stateful is the optional delta-feed extension of Scheduler — the policy
// half of the engine's incremental-state contract. A policy that maintains
// cross-cycle caches derived from engine state (the persistent capacity
// profile of CONS/CONS-D, the settled flag of EASY and of the LOS family,
// AutoResize's quiet state) implements it; the engine then reports every
// state change the policy did not make itself, so the policy can update
// its caches by delta instead of rebuilding them from the Context every
// cycle.
//
// The contract:
//
//   - ResetDeltas arms delta delivery. The engine calls it after Load and
//     after Restore, before the first scheduling cycle. Until it is
//     called, the policy must assume no deltas arrive and derive all state
//     from the Context on every Schedule call — this keeps standalone use
//     (tests, harnesses driving Schedule directly) working unchanged.
//     After Restore it doubles as the invalidation signal: caches are
//     rebuilt from the restored Context, never carried across sessions.
//   - The Job* methods report state changes: JobArrived fires when a job
//     joins a waiting queue; JobStarted fires for every dispatch,
//     including starts the policy itself made through Context.Start;
//     JobFinished fires when a job leaves the machine (its EndTime still
//     holds the kill-by value the capacity plan was built on); JobRetimed
//     fires when a running job's kill-by time moves from oldEnd to
//     j.EndTime — an ECC extend/reduce, a checkpoint charging its cost, or
//     the work-conserving rescale of a resize (which JobResized then
//     follows); JobResized fires when an ECC grow/shrink, a scheduler
//     proposal or a fault shrink moves a running job's allocation from
//     oldSize to j.Size.
//   - QueueChanged reports a waiting-set mutation not covered above: an
//     ECC rewriting a queued job's requirements in place.
//   - JobKilled fires when a node-group failure kills a running job: the
//     job leaves the machine mid-run, releasing its capacity claim from
//     now to its kill-by time (the resubmitted copy, if any, is announced
//     by a fresh JobArrived).
//   - CapacityChanged fires when the in-service machine size (Context.M)
//     shrinks or grows — node groups failing or being repaired — and when
//     a defragmentation outside a pass moved running jobs without a resize
//     following (a contiguous grow that still failed after compaction),
//     which changes what Context.Fits admits. Capacity plans built against
//     the old machine are stale; policies fall back to a rebuild rather
//     than patching (failures are rare, and a shrink under existing
//     reservations cannot be patched soundly in general).
//
// A retime changes neither the machine nor the queue, only one running
// job's end. A pass whose decisions read end times through a single
// reservation time T (EASY's shadow, the LOS family's fret) therefore stays
// a fixed point across every retime whose old and new end lie strictly on
// the same side of T; DeltaTracker implements this horizon rule.
//
// Deltas other than JobStarted are delivered between Schedule calls, never
// during one; JobStarted is delivered synchronously inside Context.Start.
// All caches must be behaviour-neutral: a policy fed deltas must make
// exactly the starts it would make rebuilding from the Context each cycle
// (the session property test checks this by running every algorithm cold
// after restore and requiring deep-equal results).
type Stateful interface {
	Scheduler
	ResetDeltas()
	JobArrived(j *job.Job, now int64)
	JobStarted(j *job.Job, now int64)
	JobFinished(j *job.Job, now int64)
	JobRetimed(j *job.Job, oldEnd, now int64)
	JobResized(j *job.Job, oldSize int, now int64)
	QueueChanged()
	JobKilled(j *job.Job, now int64)
	CapacityChanged(now int64)
}

// Retime horizons for DeltaTracker.Settle.
const (
	// NoHorizon settles a pass that read no running job's end time (an
	// empty queue, no free capacity): every retime keeps it settled.
	NoHorizon int64 = math.MaxInt64
	// EveryRetime settles a pass whose decisions depend on end times in
	// ways one reservation time does not capture (the dedicated freeze, a
	// capacity profile): every retime unsettles it.
	EveryRetime int64 = math.MinInt64
)

// DeltaTracker is the bookkeeping half of a Stateful policy: it records
// whether a delta feed is attached (live) and whether the policy has
// reached a settled fixed point — a completed scheduling pass after which
// a re-run against unchanged state provably starts nothing. While settled
// and undisturbed, Schedule may return immediately: the engine's
// fixed-point verification pass (and any later cycle whose deltas were all
// absorbed) becomes O(1) instead of a full reschedule.
//
// Embedders inherit default delta handlers that clear the settled flag on
// every external change except a start and a retime the settled pass's
// horizon absorbs (see Settle); handlers that additionally maintain a
// capacity cache (consCore) shadow them.
type DeltaTracker struct {
	live    bool  // engine attached a delta feed (ResetDeltas was called)
	settled bool  // last pass reached a fixed point; no external change since
	horizon int64 // the settled pass's retime horizon (see Settle)
}

// ResetDeltas implements Stateful.
func (d *DeltaTracker) ResetDeltas() { d.live = true; d.settled = false }

// JobArrived implements Stateful.
func (d *DeltaTracker) JobArrived(*job.Job, int64) { d.settled = false }

// JobStarted implements Stateful. Starts do not unsettle: the only starts
// that occur are the policy's own, and the pass that made them accounted
// for them before settling.
func (d *DeltaTracker) JobStarted(*job.Job, int64) {}

// JobFinished implements Stateful.
func (d *DeltaTracker) JobFinished(*job.Job, int64) { d.settled = false }

// JobRetimed implements Stateful with the horizon rule: the policy stays
// settled only when the old and new end both lie strictly before, or both
// strictly after, the settled pass's horizon. Touching or crossing it
// unsettles.
func (d *DeltaTracker) JobRetimed(j *job.Job, oldEnd, _ int64) {
	h := d.horizon
	if h == EveryRetime || oldEnd == h || j.EndTime == h || (oldEnd < h) != (j.EndTime < h) {
		d.settled = false
	}
}

// JobResized implements Stateful.
func (d *DeltaTracker) JobResized(*job.Job, int, int64) { d.settled = false }

// QueueChanged implements Stateful.
func (d *DeltaTracker) QueueChanged() { d.settled = false }

// JobKilled implements Stateful.
func (d *DeltaTracker) JobKilled(*job.Job, int64) { d.settled = false }

// CapacityChanged implements Stateful.
func (d *DeltaTracker) CapacityChanged(int64) { d.settled = false }

// Settle records a clean fixed point with its retime horizon: the
// reservation time T the pass's decisions read end times through, or
// NoHorizon, or EveryRetime. A horizon T is exact when the pass started
// nothing, T is the end of the running job whose release first makes the
// blocked head fit, and the pass admitted no candidate under (T, spare
// capacity): a retime strictly on one side of T leaves the set of jobs
// ending before T — hence T and the spare capacity — unchanged, and the
// admission test only gets stricter as now advances.
//
// Only meaningful with a live feed: without one there is no signal to
// unsettle, so the flag stays off and every cycle runs in full.
func (d *DeltaTracker) Settle(horizon int64) {
	if d.live {
		d.settled = true
		d.horizon = horizon
	}
}

// CanSkip reports whether a scheduling cycle may be skipped outright: the
// feed is live, the last pass settled, no delta arrived since — and no
// dedicated head has come due (moving it is queue work time alone can
// trigger, which no delta announces).
func (d *DeltaTracker) CanSkip(ctx *Context) bool {
	if !d.live || !d.settled {
		return false
	}
	if h := ctx.Dedicated.Head(); h != nil && h.ReqStart <= ctx.Now {
		return false
	}
	return true
}
