package core

import (
	"testing"

	"elastisched/internal/testkit"
)

func wantIDsOrder(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("started %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("started %v, want %v", got, want)
		}
	}
}

func wantIDSet(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("started %v, want set %v", got, want)
	}
	set := map[int]bool{}
	for _, id := range got {
		set[id] = true
	}
	for _, id := range want {
		if !set[id] {
			t.Fatalf("started %v, want set %v", got, want)
		}
	}
}

func TestLOSStartsHeadAggressively(t *testing.T) {
	// The paper's Figure 2 critique: LOS starts the 7-group head right
	// away and reaches utilization 7, not 10.
	h := testkit.New(320, 32)
	h.AddBatch(1, 7*32, 1000)
	h.AddBatch(2, 4*32, 1000)
	h.AddBatch(3, 6*32, 1000)
	h.Cycle(NewLOS(false))
	wantIDsOrder(t, h.StartedIDs(), []int{1})
	if h.Mach.Used() != 7*32 {
		t.Errorf("LOS utilization %d, want %d (the paper's Alternative-(a))", h.Mach.Used(), 7*32)
	}
}

func TestLOSDrainsFittingHeads(t *testing.T) {
	h := testkit.New(320, 32)
	h.AddBatch(1, 128, 100)
	h.AddBatch(2, 128, 100)
	h.AddBatch(3, 64, 100)
	h.Cycle(NewLOS(false))
	wantIDsOrder(t, h.StartedIDs(), []int{1, 2, 3})
}

func TestLOSReservationBackfill(t *testing.T) {
	// Head 320 blocked behind a 160-job ending at t=100: shadow (100, 160
	// extra? cum = 160 free + 160 = 320, frec = 0). Backfill picks the
	// max-utilization set among jobs ending before t=100.
	h := testkit.New(320, 32)
	h.AddRunning(9, 160, 100)
	h.AddBatch(1, 320, 1000)
	h.AddBatch(2, 96, 50) // short: eligible
	h.AddBatch(3, 96, 500)
	h.AddBatch(4, 64, 99) // short: eligible
	h.Cycle(NewLOS(false))
	wantIDSet(t, h.StartedIDs(), []int{2, 4})
}

func TestLOSHeadNeverDelayedByBackfill(t *testing.T) {
	// After the backfill above, when the 160-job completes at t=100 the
	// head must start immediately.
	h := testkit.New(320, 32)
	r := h.AddRunning(9, 160, 100)
	h.AddBatch(1, 320, 1000)
	h.AddBatch(2, 96, 50)
	h.Cycle(NewLOS(false))
	h.Complete(h.Started[0], 50) // job 2 done at t=50
	h.Complete(r, 100)
	h.Now = 100
	h.Cycle(NewLOS(false))
	wantIDsOrder(t, h.StartedIDs(), []int{1})
}

func TestLOSDedicatedVariantMovesDue(t *testing.T) {
	h := testkit.New(320, 32)
	h.AddDed(1, 96, 100, 40)
	h.Now = 40
	h.Cycle(NewLOS(true))
	wantIDsOrder(t, h.StartedIDs(), []int{1})
}

func TestLOSDRespectsDedicatedFreeze(t *testing.T) {
	// Dedicated 320 at t=100. Long batch head must not start; short may.
	h := testkit.New(320, 32)
	h.AddDed(1, 320, 100, 100)
	h.AddBatch(2, 64, 5000) // long: blocked by freeze
	h.AddBatch(3, 64, 50)   // short: fine
	h.Cycle(NewLOS(true))
	wantIDSet(t, h.StartedIDs(), []int{3})
}

func TestLOSDHeadWithinFreezeStartsAndPacks(t *testing.T) {
	// Dedicated 96 at t=100 leaves 224 spare: a long head of 128 may
	// start; the DP then fills around the remaining freeze capacity.
	h := testkit.New(320, 32)
	h.AddDed(1, 96, 100, 100)
	h.AddBatch(2, 128, 5000)
	h.AddBatch(3, 96, 5000) // fits remaining freeze 96
	h.AddBatch(4, 64, 5000) // would exceed freeze after 2,3
	h.AddBatch(5, 32, 50)   // short: always fine
	h.Cycle(NewLOS(true))
	wantIDSet(t, h.StartedIDs(), []int{2, 3, 5})
}

func TestLOSNames(t *testing.T) {
	if NewLOS(false).Name() != "LOS" || NewLOS(true).Name() != "LOS-D" {
		t.Error("names wrong")
	}
	if NewLOS(false).Heterogeneous() || !NewLOS(true).Heterogeneous() {
		t.Error("heterogeneous flags wrong")
	}
}

func TestLOSEmptyQueue(t *testing.T) {
	h := testkit.New(320, 32)
	h.Cycle(NewLOS(false))
	if len(h.Started) != 0 {
		t.Error("started jobs from empty queue")
	}
}

func TestLOSHeadNeverFitsDuringOutage(t *testing.T) {
	// Two of ten groups are down, so the in-service machine (256) is
	// smaller than the 288 head: the head has no reservation, and LOS
	// returns without packing the 32 behind it.
	h := testkit.New(320, 32)
	if _, _, err := h.Mach.FailGroups([]int{8, 9}); err != nil {
		t.Fatal(err)
	}
	h.AddRunning(1, 64, 100)
	h.AddBatch(2, 288, 1000)
	h.AddBatch(3, 32, 10)
	h.Cycle(NewLOS(false))
	if len(h.Started) != 0 {
		t.Errorf("started %v past a head that can never fit", h.StartedIDs())
	}
}

func TestLOSPlusFillsAfterHead(t *testing.T) {
	// Unlike LOS (head only), LOS+ packs the remaining capacity in the
	// same cycle: head 7x32 starts AND the 3x32 fits in the 96 left.
	h := testkit.New(320, 32)
	h.AddBatch(1, 7*32, 1000)
	h.AddBatch(2, 4*32, 1000) // 128 > 96 free after head: waits
	h.AddBatch(3, 3*32, 1000) // 96 fits
	h.Cycle(NewLOSPlus())
	wantIDSet(t, h.StartedIDs(), []int{1, 3})
}

func TestLOSPlusStillMissesFigure2Packing(t *testing.T) {
	// LOS+ shares LOS's aggressive head rule, so the Figure 2 example
	// still yields utilization 7, not 10 — only Delayed-LOS fixes that.
	h := testkit.New(320, 32)
	h.AddBatch(1, 7*32, 1000)
	h.AddBatch(2, 4*32, 1000)
	h.AddBatch(3, 6*32, 1000)
	h.Cycle(NewLOSPlus())
	if h.Mach.Used() != 7*32 {
		t.Errorf("LOS+ used %d, want %d", h.Mach.Used(), 7*32)
	}
}

func TestLOSPlusReservationWhenHeadBlocked(t *testing.T) {
	h := testkit.New(320, 32)
	h.AddRunning(9, 160, 100)
	h.AddBatch(1, 320, 1000)
	h.AddBatch(2, 96, 50)
	h.Cycle(NewLOSPlus())
	wantIDSet(t, h.StartedIDs(), []int{2})
}

func TestLOSPlusFlags(t *testing.T) {
	l := NewLOSPlus()
	if l.Name() != "LOS+" || l.Heterogeneous() {
		t.Error("flags wrong")
	}
	h := testkit.New(320, 32)
	h.Cycle(l) // empty queue: no-op
	if len(h.Started) != 0 {
		t.Error("idle LOS+ started jobs")
	}
}
