package sched

import (
	"testing"
)

// TestProposeResizesAllocFree pins the -M hot path: after the first call
// grows the scratch buffers, ProposeResizes must not allocate on either the
// shrink-to-admit or the expand-when-idle shape — it runs once per
// scheduling cycle, so a per-call slice costs an allocation per simulated
// instant.
func TestProposeResizesAllocFree(t *testing.T) {
	shrink := newHarness(t, 320, 32)
	for i := 0; i < 4; i++ {
		j := shrink.addRunning(100+i, 64, 1000)
		j.MinProcs = 32
		j.MaxProcs = 128
	}
	// Head of 192 against 64 free: deficit 128, covered by 4×32 reserve.
	shrink.addBatch(1, 192, 500)

	expand := newHarness(t, 320, 32)
	for i := 0; i < 2; i++ {
		j := expand.addRunning(200+i, 64, 1000)
		j.MinProcs = 32
		j.MaxProcs = 128
	}

	for _, tc := range []struct {
		name string
		ctx  *Context
	}{
		{"shrink-to-admit", shrink.ctx()},
		{"expand-when-idle", expand.ctx()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAutoResize(&EASY{})
			if got := a.ProposeResizes(tc.ctx); len(got) == 0 {
				t.Fatal("no proposals; the shape exercises nothing")
			}
			if n := testing.AllocsPerRun(100, func() { a.ProposeResizes(tc.ctx) }); n != 0 {
				t.Errorf("ProposeResizes allocates %.1f per call after warm-up", n)
			}
		})
	}
}

// TestProposeResizesScratchCleared: the scratch arrays must not pin job
// pointers from a previous cycle once a new cycle (or a delta reset) has
// run — a decorator outlives workloads in sweep loops.
func TestProposeResizesScratchCleared(t *testing.T) {
	h := newHarness(t, 320, 32)
	for i := 0; i < 4; i++ {
		j := h.addRunning(100+i, 64, 1000)
		j.MinProcs = 32
		j.MaxProcs = 128
	}
	h.addBatch(1, 192, 500)
	a := NewAutoResize(&EASY{})
	if got := a.ProposeResizes(h.ctx()); len(got) == 0 {
		t.Fatal("no proposals; the test exercises nothing")
	}
	a.ResetDeltas()
	for i, j := range a.cand[:cap(a.cand)] {
		if j != nil {
			t.Errorf("cand[%d] still pins job %d after reset", i, j.ID)
		}
	}
	for i, r := range a.out[:cap(a.out)] {
		if r.Job != nil {
			t.Errorf("out[%d] still pins job %d after reset", i, r.Job.ID)
		}
	}
}

// TestAutoResizeQuietState: with the feed armed, a cycle that made no
// progress and proposed nothing makes the decorator quiet. A retime keeps
// it quiet (neither rule reads end times); any other delta, or a cycle
// with progress, makes it rescan. Without a feed it never goes quiet.
func TestAutoResizeQuietState(t *testing.T) {
	h := newHarness(t, 320, 32)
	j := h.addRunning(100, 64, 1000)
	j.MinProcs, j.MaxProcs = 32, 64
	h.addBatch(1, 64, 500) // fits: no deficit, nothing to shrink

	cold := NewAutoResize(&EASY{})
	if cold.ProposeResizes(h.ctx()); cold.quiet {
		t.Fatal("quiet without a delta feed")
	}

	a := NewAutoResize(&EASY{})
	a.ResetDeltas()
	ctx := h.ctx()
	if got := a.ProposeResizes(ctx); len(got) != 0 || !a.quiet {
		t.Fatalf("proposals %v, quiet %v; want none and quiet", got, a.quiet)
	}
	a.JobRetimed(j, j.EndTime, h.now)
	if !a.quiet {
		t.Fatal("a retime ended the quiet state")
	}
	ctx.Progress = true
	if a.ProposeResizes(ctx); a.quiet {
		t.Fatal("quiet after a cycle with progress")
	}
	ctx.Progress = false
	a.ProposeResizes(ctx)
	for name, delta := range map[string]func(){
		"JobArrived":      func() { a.JobArrived(j, h.now) },
		"JobStarted":      func() { a.JobStarted(j, h.now) },
		"JobFinished":     func() { a.JobFinished(j, h.now) },
		"JobResized":      func() { a.JobResized(j, 32, h.now) },
		"QueueChanged":    func() { a.QueueChanged() },
		"JobKilled":       func() { a.JobKilled(j, h.now) },
		"CapacityChanged": func() { a.CapacityChanged(h.now) },
	} {
		a.quiet = true
		delta()
		if a.quiet {
			t.Errorf("%s left the decorator quiet", name)
		}
	}
}
