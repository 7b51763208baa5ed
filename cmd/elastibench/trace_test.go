package main

import (
	"testing"

	"elastisched/internal/experiment"
	"elastisched/internal/job"
	"elastisched/internal/sched"
	"elastisched/internal/testkit"
)

// proposer is a Malleable policy that is not Stateful, the one combination
// no registry algorithm has.
type proposer struct{ sched.FCFS }

func (proposer) ProposeResizes(*sched.Context) []sched.Resize { return nil }

// TestDecoratorExposesInnerInterfaces checks the decorator is transparent to
// the engine's capability probes: it implements Stateful and Malleable
// exactly when the policy it wraps does.
func TestDecoratorExposesInnerInterfaces(t *testing.T) {
	inners := map[string]sched.Scheduler{"proposer": proposer{}}
	for _, name := range experiment.Names() {
		for _, n := range []string{name, name + "-M"} {
			inners[n] = experiment.MustByName(n).New(experiment.Point{})
		}
	}
	for name, inner := range inners {
		d := newTimedSched(inner, &schedAcc{})
		_, innerSt := inner.(sched.Stateful)
		_, innerM := inner.(sched.Malleable)
		_, st := d.(sched.Stateful)
		_, m := d.(sched.Malleable)
		if st != innerSt || m != innerM {
			t.Errorf("%s: decorated Stateful=%v Malleable=%v, inner Stateful=%v Malleable=%v",
				name, st, m, innerSt, innerM)
		}
		if d.Name() != inner.Name() || d.Heterogeneous() != inner.Heterogeneous() {
			t.Errorf("%s: decorated identity %q/%v differs from inner %q/%v",
				name, d.Name(), d.Heterogeneous(), inner.Name(), inner.Heterogeneous())
		}
	}
}

// TestDecoratorAllocatesNothing checks that tracing adds no garbage to the
// hot call sites, so the traced run's collector behaves as the untraced
// one's: a Schedule call through the swapped start callback, and a delta.
func TestDecoratorAllocatesNothing(t *testing.T) {
	h := testkit.New(320, 32)
	head := h.AddBatch(1, 64, 100)
	ctx := h.Ctx()
	ctx.StartFn = func(*job.Job) bool { return false } // refuse, so every call repeats the same work
	acc := &schedAcc{}
	d := newTimedSched(&sched.EASY{}, acc)
	if n := testing.AllocsPerRun(100, func() { d.Schedule(ctx) }); n != 0 {
		t.Errorf("decorated Schedule allocates %v times per call", n)
	}
	if acc.refused == 0 || acc.cycles == 0 {
		t.Fatalf("the start callback was not exercised: %+v", acc)
	}
	st := d.(sched.Stateful)
	if n := testing.AllocsPerRun(100, func() { st.JobArrived(head, 0) }); n != 0 {
		t.Errorf("decorated delta allocates %v times per call", n)
	}
}

// TestDecoratorCountsAndRestoresStarts checks starts and useful cycles are
// counted, and that the engine's own callback is back in the context after
// every Schedule call.
func TestDecoratorCountsAndRestoresStarts(t *testing.T) {
	h := testkit.New(320, 32)
	h.AddBatch(1, 64, 100)
	acc := &schedAcc{}
	d := newTimedSched(&sched.EASY{}, acc)
	if started := h.Cycle(d); len(started) != 1 || acc.starts != 1 || acc.useful != 1 || acc.cycles != 2 {
		t.Fatalf("started %d jobs; accumulator %+v, want 1 start in the first of 2 cycles", len(started), acc)
	}

	blocked := h.AddBatch(2, 320, 100)
	ctx := h.Ctx()
	calls := 0
	ctx.StartFn = func(*job.Job) bool { calls++; return false }
	h.Mach.Release(1) // room for the blocked job, which the callback then refuses
	h.Active.Remove(h.Started[0])
	d.Schedule(ctx)
	refused := acc.refused
	ctx.StartFn(blocked)
	if calls != 2 || refused != 1 || acc.refused != refused {
		t.Fatalf("callback calls %d, refused %d then %d: the engine callback was not restored", calls, refused, acc.refused)
	}
}
