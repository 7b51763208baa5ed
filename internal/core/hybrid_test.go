package core

import (
	"testing"

	"elastisched/internal/job"
	"elastisched/internal/sched"
	"elastisched/internal/testkit"
)

func TestHybridBehavesLikeDelayedWithoutDedicated(t *testing.T) {
	// No dedicated jobs pending: Algorithm 2 line 4 — exactly Delayed-LOS,
	// so the Figure 2 packing appears.
	h := testkit.New(320, 32)
	h.AddBatch(1, 7*32, 1000)
	h.AddBatch(2, 4*32, 1000)
	h.AddBatch(3, 6*32, 1000)
	h.Cycle(NewHybridLOS(7))
	wantIDSet(t, h.StartedIDs(), []int{2, 3})
}

func TestHybridMovesDueDedicatedAndStartsIt(t *testing.T) {
	h := testkit.New(320, 32)
	h.AddBatch(1, 96, 1000)
	d := h.AddDed(2, 64, 100, 50)
	h.Now = 50
	h.Cycle(NewHybridLOS(7))
	// The due dedicated job moves to the batch head with scount = C_s and
	// starts immediately; the batch job follows.
	ids := h.StartedIDs()
	if len(ids) != 2 || ids[0] != 2 {
		t.Fatalf("started %v, want dedicated job 2 first", ids)
	}
	if !d.Rigid || d.SCount != 7 {
		t.Errorf("moved job rigid=%v scount=%d, want true, 7", d.Rigid, d.SCount)
	}
}

func TestHybridPacksUnderDedicatedFreeze(t *testing.T) {
	// Dedicated 320 at t=100: only batch jobs finishing before then may
	// start (Algorithm 2 lines 16-22).
	h := testkit.New(320, 32)
	h.AddDed(1, 320, 500, 100)
	h.AddBatch(2, 160, 50)   // ends before the freeze
	h.AddBatch(3, 160, 5000) // would hold processors at t=100
	h.Cycle(NewHybridLOS(7))
	wantIDSet(t, h.StartedIDs(), []int{2})
}

func TestHybridChargesSkipUnderFreeze(t *testing.T) {
	// The batch head not selected by Reservation_DP gets a skip even in
	// the dedicated branch (Algorithm 2 lines 22 and 30).
	h := testkit.New(320, 32)
	h.AddDed(1, 320, 500, 100)
	head := h.AddBatch(2, 160, 5000) // blocked by the freeze
	h.AddBatch(3, 160, 50)
	h.Cycle(NewHybridLOS(7))
	wantIDSet(t, h.StartedIDs(), []int{3})
	if head.SCount != 1 {
		t.Errorf("head scount = %d, want 1", head.SCount)
	}
}

func TestHybridInsufficientCapacityFreeze(t *testing.T) {
	// Dedicated demand cannot fit at its requested start (a running job
	// holds too much): the freeze slips to the completion that frees
	// enough (Algorithm 2 lines 24-30) and batch jobs pack under it.
	h := testkit.New(320, 32)
	h.AddRunning(9, 288, 150) // holds past the requested start
	h.AddDed(1, 96, 500, 100)
	h.AddBatch(2, 32, 40)   // ends before t=150
	h.AddBatch(3, 32, 5000) // would consume the slipped freeze capacity
	h.Cycle(NewHybridLOS(7))
	// frec at t=150: free(32) + 288 - 96 = 224... job 3 (32, long) fits
	// 224: both may start. Check no crash and the dedicated job is intact.
	if h.Ded.Len() != 1 {
		t.Fatal("dedicated job lost")
	}
	for _, j := range h.Started {
		if j.ID == 1 {
			t.Fatal("future dedicated job started early")
		}
	}
}

func TestHybridForcedHeadAtThreshold(t *testing.T) {
	// Head with scount >= C_s starts right away even with a dedicated
	// freeze pending (Algorithm 2 lines 35-37).
	h := testkit.New(320, 32)
	h.AddDed(1, 320, 500, 100)
	head := h.AddBatch(2, 160, 5000)
	head.SCount = 7
	h.Cycle(NewHybridLOS(7))
	ids := h.StartedIDs()
	if len(ids) == 0 || ids[0] != 2 {
		t.Fatalf("forced head did not start: %v", ids)
	}
}

func TestHybridForcedHeadTooBigFallsBackToReservation(t *testing.T) {
	// Deviation from the paper's unchecked activation: an oversized forced
	// head cannot start; the cycle reserves for it instead of panicking.
	h := testkit.New(320, 32)
	h.AddRunning(9, 160, 100)
	h.AddDed(1, 32, 10, 500)
	head := h.AddBatch(2, 320, 1000)
	head.SCount = 7
	h.AddBatch(3, 96, 50)
	h.Cycle(NewHybridLOS(7))
	wantIDSet(t, h.StartedIDs(), []int{3})
}

func TestHybridPromotesDueDedicatedWhenBatchEmpty(t *testing.T) {
	// Lines 39-42: no batch jobs, a due dedicated job still moves and
	// starts.
	h := testkit.New(320, 32)
	h.AddDed(1, 96, 100, 20)
	h.Now = 20
	h.Cycle(NewHybridLOS(7))
	wantIDsOrder(t, h.StartedIDs(), []int{1})
}

func TestHybridPromotesDueDedicatedWhenMachineFull(t *testing.T) {
	h := testkit.New(320, 32)
	h.AddRunning(9, 320, 100)
	d := h.AddDed(1, 96, 100, 20)
	h.Now = 20
	h.Cycle(NewHybridLOS(7))
	if len(h.Started) != 0 {
		t.Fatal("nothing can start on a full machine")
	}
	if h.Batch.Head() != d {
		t.Fatal("due dedicated job should wait at the batch head")
	}
}

func TestHybridMultipleDueDedicatedKeepOrder(t *testing.T) {
	// Two dedicated jobs due at the same instant: the earlier start goes
	// first (moved one per cycle; the engine loop drains both).
	h := testkit.New(320, 32)
	h.AddDed(1, 96, 100, 10)
	h.AddDed(2, 96, 100, 20)
	h.Now = 25
	h.Cycle(NewHybridLOS(7))
	ids := h.StartedIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("due dedicated jobs started as %v, want [1 2]", ids)
	}
}

func TestHybridDedicatedWaitMeasuredFromRequestedStart(t *testing.T) {
	h := testkit.New(320, 32)
	h.AddRunning(9, 320, 100)
	d := h.AddDed(1, 96, 100, 20)
	h.Now = 20
	h.Cycle(NewHybridLOS(7))
	h.Complete(h.Active.Jobs()[0], 100)
	h.Now = 100
	h.Cycle(NewHybridLOS(7))
	if d.State != job.Running || d.StartTime != 100 {
		t.Fatalf("dedicated job state=%v start=%d", d.State, d.StartTime)
	}
	if d.Wait() != 80 {
		t.Errorf("dedicated wait = %d, want 80 (from requested start 20)", d.Wait())
	}
}

func TestHybridFlags(t *testing.T) {
	hl := NewHybridLOS(5)
	if hl.Name() != "Hybrid-LOS" || !hl.Heterogeneous() {
		t.Error("flags wrong")
	}
	if hl.delayed.Cs != 5 || hl.delayed.Lookahead != DefaultLookahead {
		t.Error("threshold or default lookahead not set")
	}
	hl.SetLookahead(9)
	if hl.delayed.Lookahead != 9 {
		t.Error("SetLookahead not applied")
	}
}

// Hybrid-LOS keeps its Delayed-LOS unexported: the embedded DeltaTracker
// must not make it Stateful, or the engine would start feeding it deltas
// and its settle-skip would change Hybrid-LOS's schedules.
func TestHybridLOSIsNotStateful(t *testing.T) {
	var s sched.Scheduler = NewHybridLOS(7)
	if _, ok := s.(sched.Stateful); ok {
		t.Fatal("HybridLOS satisfies sched.Stateful")
	}
}

func TestHybridIdleNoop(t *testing.T) {
	h := testkit.New(320, 32)
	h.Cycle(NewHybridLOS(7))
	if len(h.Started) != 0 {
		t.Error("idle hybrid started jobs")
	}
}
