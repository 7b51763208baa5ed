package core

import (
	"elastisched/internal/sched"
)

// LOSPlus is the *stronger* reading of the Lookahead Optimizing Scheduler:
// the head job is started right away whenever it fits (as in LOS), and the
// remaining capacity is then packed with the utilization-maximizing set
// from Basic_DP in the same cycle — rather than waiting for the next
// scheduling event as the paper's narration of LOS implies.
//
// The original Shmueli & Feitelson algorithm is arguably this variant; the
// paper under reproduction describes LOS as "start the job at head of queue
// right away ... instead of finding the right combination of jobs". Both
// are implemented so the interpretation gap is measurable: see the
// `los-variants` experiment. LOSPlus is batch-only.
type LOSPlus struct {
	// Lookahead bounds the DP window (default DefaultLookahead).
	Lookahead int

	scratch Scratch
}

// NewLOSPlus returns the head-plus-DP-fill LOS variant.
func NewLOSPlus() *LOSPlus {
	return &LOSPlus{Lookahead: DefaultLookahead}
}

// Name implements sched.Scheduler.
func (l *LOSPlus) Name() string { return "LOS+" }

// Heterogeneous implements sched.Scheduler.
func (l *LOSPlus) Heterogeneous() bool { return false }

// Schedule runs one cycle: start the head if it fits, then DP-fill; if the
// head does not fit, reserve for it and backfill with Reservation_DP.
func (l *LOSPlus) Schedule(ctx *sched.Context) {
	m := ctx.Free()
	if m <= 0 || ctx.Batch.Empty() {
		return
	}
	head := ctx.Batch.Head()
	if ctx.Fits(head.Size) {
		if !ctx.Start(head) {
			return
		}
		m = ctx.Free()
		if m <= 0 || ctx.Batch.Empty() {
			return
		}
		window := ctx.Window(m, l.Lookahead)
		startAll(ctx, BasicDP(window, m, &l.scratch))
		return
	}
	fret, frec, ok := sched.HeadShadow(ctx, head)
	if !ok {
		return
	}
	window := ctx.Window(m, l.Lookahead)
	startAll(ctx, ReservationDP(window, m, frec, fret, ctx.Now, &l.scratch))
}
