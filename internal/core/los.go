package core

import (
	"elastisched/internal/job"
	"elastisched/internal/sched"
)

// LOS is the Lookahead Optimizing Scheduler of Shmueli & Feitelson, as the
// paper characterizes it: the job at the head of the queue is started right
// away whenever enough capacity is available (this bounds its waiting time
// but, per the paper's claim, is too aggressive); the remaining capacity is
// filled with the utilization-maximizing set from Basic_DP. When the head
// does not fit, a reservation is made at the time enough running jobs will
// have drained, and Reservation_DP fills the holes before it.
//
// With Ded set, LOS becomes the paper's LOS-D: due dedicated jobs move to
// the queue head, and while dedicated reservations are pending the packing
// runs under the dedicated freeze (fret_d, frec_d) instead of Basic_DP.
type LOS struct {
	// Lookahead bounds the DP window (default DefaultLookahead).
	Lookahead int
	// Ded enables the dedicated-queue appendage (LOS-D).
	Ded bool

	// DeltaTracker makes LOS Stateful. LOS settles only on passes that
	// start nothing: no free capacity, an empty queue, or a reservation
	// backfill that selects nobody. LOS-D never settles: its dedicated
	// freeze reads end times beyond the head's reservation.
	sched.DeltaTracker
	scratch Scratch
}

// NewLOS returns a LOS scheduler (LOS-D when ded is set).
func NewLOS(ded bool) *LOS {
	return &LOS{Lookahead: DefaultLookahead, Ded: ded}
}

// Name implements sched.Scheduler.
func (l *LOS) Name() string {
	if l.Ded {
		return "LOS-D"
	}
	return "LOS"
}

// Heterogeneous implements sched.Scheduler.
func (l *LOS) Heterogeneous() bool { return l.Ded }

// Schedule runs one LOS cycle.
func (l *LOS) Schedule(ctx *sched.Context) {
	if l.CanSkip(ctx) {
		return
	}
	if l.Ded && sched.MoveDueDedicated(ctx, 0) {
		return
	}
	m := ctx.Free()
	if m <= 0 || ctx.Batch.Empty() {
		l.settle(sched.NoHorizon)
		return
	}
	var dfz *sched.Freeze
	if l.Ded && !ctx.Dedicated.Empty() {
		f, _ := sched.DedicatedFreeze(ctx)
		dfz = &f
	}

	head := ctx.Batch.Head()
	switch {
	case ctx.Fits(head.Size) && dfz.Allows(ctx.Now, head):
		// Start the head right away — the aggressive rule this paper
		// critiques: "instead of finding the right combination of jobs that
		// maximize utilization at a given time, they propose to start the
		// job at head of queue right away if enough capacity is available"
		// (Section III-A). The engine's fixed-point loop re-enters, so
		// successive fitting heads drain in order; the DP only packs when
		// the head blocks.
		if ctx.Start(head) {
			dfz.Commit(ctx.Now, head)
		}

	case head.Size <= m && dfz != nil:
		// The head fits the machine but violates the dedicated freeze; pack
		// under the freeze (the head is a candidate like any other and will
		// be excluded by its freeze demand).
		window := ctx.Window(m, l.Lookahead)
		set := ReservationDP(window, m, dfz.Capacity, dfz.Time, ctx.Now, &l.scratch)
		startAll(ctx, set)

	default:
		// Head does not fit: reserve for it (or, in LOS-D with pending
		// dedicated jobs, let the dedicated freeze take precedence) and
		// backfill with Reservation_DP.
		fret, frec, ok := sched.HeadShadow(ctx, head)
		if dfz != nil {
			fret, frec, ok = dfz.Time, dfz.Capacity, true
		}
		if !ok {
			return
		}
		window := ctx.Window(m, l.Lookahead)
		set := ReservationDP(window, m, frec, fret, ctx.Now, &l.scratch)
		if len(set) == 0 {
			l.settle(fret)
		}
		startAll(ctx, set)
	}
}

// settle settles a pass that started nothing with retime horizon h; LOS-D
// runs every pass in full.
func (l *LOS) settle(h int64) {
	if !l.Ded {
		l.Settle(h)
	}
}

// startAll dispatches every selected job. set may alias the scheduler's
// Scratch (the DP aliasing contract); it is fully consumed here, before
// any further DP call on the same Scratch.
func startAll(ctx *sched.Context, set []*job.Job) {
	for _, j := range set {
		ctx.Start(j)
	}
}

// bumpSkip charges one skip to the head job for the current instant — at
// most once per instant even though the engine may cycle the scheduler
// several times within it. (With an unbounded DP window the guard is
// provably redundant — a second Basic_DP pass in the same instant never
// finds another fitting candidate set — but lookahead truncation and the
// Hybrid branches can re-enter, so the semantics are pinned here.)
func bumpSkip(ctx *sched.Context, head *job.Job) {
	if head.LastSkip == ctx.Now {
		return
	}
	head.LastSkip = ctx.Now
	head.SCount++
}
