package sched

// ConservativeD extends conservative backfilling to heterogeneous
// workloads (an extra baseline beyond the paper's EASY-D/LOS-D): every
// pending dedicated job holds a hard reservation at its requested start
// time in the capacity profile, and every batch job receives its earliest
// reservation around those; nothing may delay anything that reserved
// earlier.
//
// The zero value is ready to use. Like Conservative, the policy carries a
// persistent delta-maintained capacity base; a fresh instance is required
// per run.
type ConservativeD struct {
	consCore
}

// Name implements Scheduler.
func (*ConservativeD) Name() string { return "CONS-D" }

// Heterogeneous implements Scheduler.
func (*ConservativeD) Heterogeneous() bool { return true }

// Schedule moves due dedicated jobs to the queue head, then runs the
// conservative pass with dedicated reservations pinned in the profile.
func (s *ConservativeD) Schedule(ctx *Context) {
	if h := ctx.Dedicated.Head(); MoveDueDedicated(ctx, 0) {
		// The queue changed shape under the pass's feet; the fixed-point
		// re-invocation must run, from the plan when the move keeps it.
		s.dueMoved(ctx, h)
		s.settled = false
		return
	}
	s.pass(ctx, true)
}
