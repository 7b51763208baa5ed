package core

import (
	"elastisched/internal/sched"
)

// DefaultCs is a reasonable default maximum skip count; the paper finds the
// optimum empirically around 7-8 for balanced workloads (Figure 5) and ~3
// when small jobs dominate (Figure 6).
const DefaultCs = 7

// DelayedLOS is the paper's Algorithm 1. It relaxes LOS's "start the head
// right away" rule: while the head job's skip count is below the threshold
// C_s, the scheduler is free to pick the utilization-maximizing set from
// Basic_DP even if that set skips the head. Every instant the head fits but
// is skipped charges one skip; once the count reaches C_s the head is
// started immediately (bounding its waiting time, as LOS's rule did, but
// only after the packing freedom has been exploited). A head that does not
// fit at all gets the usual reservation and Reservation_DP backfill.
type DelayedLOS struct {
	// Cs is the maximum skip count threshold (paper's C_s).
	Cs int
	// Lookahead bounds the DP window (default DefaultLookahead).
	Lookahead int

	// DeltaTracker makes Delayed-LOS Stateful. It settles only on passes
	// that start nothing and charge no skip: no free capacity, an empty
	// queue, or a reservation backfill that selects nobody. A Basic_DP
	// pass never settles, since bumpSkip charges the head once per
	// instant, so a later instant is never a replay of an earlier one.
	sched.DeltaTracker
	scratch Scratch
}

// NewDelayedLOS returns a Delayed-LOS scheduler with threshold cs.
func NewDelayedLOS(cs int) *DelayedLOS {
	return &DelayedLOS{Cs: cs, Lookahead: DefaultLookahead}
}

// Name implements sched.Scheduler.
func (d *DelayedLOS) Name() string { return "Delayed-LOS" }

// Heterogeneous implements sched.Scheduler; Delayed-LOS is batch-only.
func (d *DelayedLOS) Heterogeneous() bool { return false }

// Schedule runs one Delayed-LOS cycle (Algorithm 1).
func (d *DelayedLOS) Schedule(ctx *sched.Context) {
	if d.CanSkip(ctx) {
		return
	}
	m := ctx.Free()
	if m <= 0 || ctx.Batch.Empty() {
		d.Settle(sched.NoHorizon)
		return
	}
	head := ctx.Batch.Head()
	switch {
	case ctx.Fits(head.Size) && head.SCount >= d.Cs:
		// Lines 3-5: the head has been skipped enough; start it right away.
		ctx.Start(head)

	case head.Size <= m:
		// Lines 6-11: free packing via Basic_DP; charge a skip if the head
		// was not selected.
		window := ctx.Window(m, d.Lookahead)
		set := BasicDP(window, m, &d.scratch)
		if !Contains(set, head) {
			bumpSkip(ctx, head)
		}
		startAll(ctx, set)

	default:
		// Lines 12-20: head does not fit; reserve and backfill.
		fret, frec, ok := sched.HeadShadow(ctx, head)
		if !ok {
			return
		}
		window := ctx.Window(m, d.Lookahead)
		set := ReservationDP(window, m, frec, fret, ctx.Now, &d.scratch)
		if len(set) == 0 {
			d.Settle(fret)
		}
		startAll(ctx, set)
	}
}
