package core

import (
	"elastisched/internal/sched"
)

// HybridLOS is the paper's Algorithm 2: Delayed-LOS extended for
// heterogeneous workloads. Batch jobs are packed for maximum utilization
// while explicit reservations protect the rigid start times of dedicated
// jobs:
//
//   - with no dedicated jobs pending, it behaves exactly like Delayed-LOS;
//   - a dedicated job whose requested start has arrived is moved to the head
//     of the batch queue with its skip count forced to C_s, so it starts at
//     the first instant capacity allows (Algorithm 3);
//   - otherwise batch jobs are chosen by Reservation_DP under the dedicated
//     freeze (fret_d, frec_d), computed for the earliest requested start —
//     including the insufficient-capacity case where the dedicated jobs will
//     unavoidably start late (lines 24-30);
//   - a batch head that has exhausted its skips starts right away (lines
//     35-37). The paper activates it without a capacity check; we start it
//     only if it fits and otherwise fall back to Delayed-LOS's reservation
//     for it, since an unchecked start would oversubscribe the machine
//     (documented deviation).
type HybridLOS struct {
	// delayed is the Delayed-LOS behaviour of the pure-batch branch. Its
	// Cs and Lookahead are the hybrid branches' too, and they solve on
	// its Scratch. It is unexported so its DeltaTracker does not make
	// Hybrid-LOS sched.Stateful: the engine never feeds it deltas.
	delayed DelayedLOS
}

// NewHybridLOS returns a Hybrid-LOS scheduler with threshold cs.
func NewHybridLOS(cs int) *HybridLOS {
	return &HybridLOS{delayed: DelayedLOS{Cs: cs, Lookahead: DefaultLookahead}}
}

// SetLookahead bounds the DP window (default DefaultLookahead) of every
// branch.
func (h *HybridLOS) SetLookahead(n int) { h.delayed.Lookahead = n }

// Name implements sched.Scheduler.
func (h *HybridLOS) Name() string { return "Hybrid-LOS" }

// Heterogeneous implements sched.Scheduler.
func (h *HybridLOS) Heterogeneous() bool { return true }

// Schedule runs one Hybrid-LOS cycle (Algorithm 2).
func (h *HybridLOS) Schedule(ctx *sched.Context) {
	m := ctx.Free()
	switch {
	case m > 0 && !ctx.Batch.Empty():
		head := ctx.Batch.Head()
		switch {
		case ctx.Dedicated.Empty():
			// Lines 3-4: pure batch scheduling.
			h.delayed.Schedule(ctx)

		case head.SCount < h.delayed.Cs:
			// Lines 5-34.
			if sched.MoveDueDedicated(ctx, h.delayed.Cs) {
				return // line 7; the engine's fixed point re-enters
			}
			// Lines 8-30: pack under the dedicated freeze.
			fz, _ := sched.DedicatedFreeze(ctx)
			window := ctx.Window(m, h.delayed.Lookahead)
			set := ReservationDP(window, m, fz.Capacity, fz.Time, ctx.Now, &h.delayed.scratch)
			if !Contains(set, head) {
				bumpSkip(ctx, head) // lines 22 and 30
			}
			startAll(ctx, set) // lines 32-33

		default:
			// Lines 35-37: the head has exhausted its skips.
			if ctx.Fits(head.Size) && ctx.Start(head) {
				return
			}
			// Deviation: the paper's unconditional activation is unsound
			// when the head does not fit; bound its wait with its own
			// reservation as Delayed-LOS does.
			fret, frec, ok := sched.HeadShadow(ctx, head)
			if !ok {
				return
			}
			window := ctx.Window(m, h.delayed.Lookahead)
			set := ReservationDP(window, m, frec, fret, ctx.Now, &h.delayed.scratch)
			startAll(ctx, set)
		}

	case !ctx.Dedicated.Empty():
		// Lines 39-42: no batch work (or no capacity); promote a due
		// dedicated job so it is waiting at the head when capacity frees.
		sched.MoveDueDedicated(ctx, h.delayed.Cs)
	}
}
