package sched

import (
	"testing"

	"elastisched/internal/job"
)

func TestFreezeNilAllowsEverything(t *testing.T) {
	var f *Freeze
	j := &job.Job{ID: 1, Size: 320, Dur: 1000}
	if !f.Allows(0, j) {
		t.Error("nil freeze must allow")
	}
	f.Commit(0, j) // must not panic
}

func TestFreezeAllowsShortJob(t *testing.T) {
	f := &Freeze{Time: 100, Capacity: 0}
	short := &job.Job{ID: 1, Size: 320, Dur: 50} // ends at 50 < 100
	if !f.Allows(0, short) {
		t.Error("job ending before freeze must be allowed")
	}
	boundary := &job.Job{ID: 2, Size: 320, Dur: 100} // ends exactly at 100
	if f.Allows(0, boundary) {
		t.Error("job ending exactly at freeze time consumes capacity (paper's strict <)")
	}
}

func TestFreezeAllowsWithinCapacity(t *testing.T) {
	f := &Freeze{Time: 100, Capacity: 64}
	long := &job.Job{ID: 1, Size: 64, Dur: 500}
	if !f.Allows(0, long) {
		t.Error("long job within freeze capacity must be allowed")
	}
	f.Commit(0, long)
	if f.Capacity != 0 {
		t.Errorf("capacity after commit = %d, want 0", f.Capacity)
	}
	next := &job.Job{ID: 2, Size: 32, Dur: 500}
	if f.Allows(0, next) {
		t.Error("freeze capacity exhausted; long job must be rejected")
	}
}

func TestFreezeCommitShortJobFree(t *testing.T) {
	f := &Freeze{Time: 100, Capacity: 64}
	short := &job.Job{ID: 1, Size: 320, Dur: 50}
	f.Commit(10, short) // ends at 60 < 100
	if f.Capacity != 64 {
		t.Error("short job must not consume freeze capacity")
	}
}

func TestMoveDueDedicated(t *testing.T) {
	h := newHarness(t, 320, 32)
	h.addBatch(1, 32, 100)
	d := h.addDed(2, 64, 100, 50)
	h.now = 50
	c := h.ctx()
	if !MoveDueDedicated(c, 7) {
		t.Fatal("due dedicated job not moved")
	}
	if h.ded.Len() != 0 {
		t.Error("dedicated queue should be empty")
	}
	if h.batch.Head() != d {
		t.Error("moved job should be batch head")
	}
	if d.SCount != 7 || !d.Rigid {
		t.Errorf("moved job scount=%d rigid=%v, want 7, true", d.SCount, d.Rigid)
	}
	if !c.Progress {
		t.Error("move must mark progress")
	}
}

func TestMoveDueDedicatedNotDue(t *testing.T) {
	h := newHarness(t, 320, 32)
	h.addDed(1, 64, 100, 500)
	h.now = 100
	if MoveDueDedicated(h.ctx(), 7) {
		t.Error("future dedicated job moved")
	}
}

func TestMoveDueDedicatedEmpty(t *testing.T) {
	h := newHarness(t, 320, 32)
	if MoveDueDedicated(h.ctx(), 7) {
		t.Error("move on empty dedicated queue")
	}
}

func TestDedicatedFreezeAllFit(t *testing.T) {
	// Machine 320; one job of 128 runs until t=200. Dedicated job of 96
	// wants t=100: at t=100 the running job still holds 128, so capacity
	// is 192; 96 fits; freeze = (100, 192-96).
	h := newHarness(t, 320, 32)
	h.addRunning(1, 128, 200)
	h.addDed(2, 96, 100, 100)
	h.now = 0
	fz, onTime := DedicatedFreeze(h.ctx())
	if !onTime {
		t.Fatal("should be on time")
	}
	if fz.Time != 100 || fz.Capacity != 96 {
		t.Errorf("freeze = %+v, want {100 96}", fz)
	}
}

func TestDedicatedFreezeAfterAllRunning(t *testing.T) {
	// Dedicated start after every running job ends: full machine available.
	h := newHarness(t, 320, 32)
	h.addRunning(1, 128, 200)
	h.addDed(2, 96, 100, 300)
	fz, onTime := DedicatedFreeze(h.ctx())
	if !onTime || fz.Time != 300 || fz.Capacity != 320-96 {
		t.Errorf("freeze = %+v onTime=%v, want {300 224} true", fz, onTime)
	}
}

func TestDedicatedFreezeBoundaryRelease(t *testing.T) {
	// A job ending exactly at the requested start still counts as holding
	// its processors there (the paper's a_s.res >= start - t).
	h := newHarness(t, 320, 32)
	h.addRunning(1, 320, 100)
	h.addDed(2, 32, 10, 100)
	fz, onTime := DedicatedFreeze(h.ctx())
	if onTime {
		t.Fatal("machine fully held at start; cannot be on time")
	}
	// Insufficient-capacity branch: freeze moves to the release making the
	// demand fit: t + a_1.res = 100, capacity 320-32.
	if fz.Time != 100 || fz.Capacity != 288 {
		t.Errorf("freeze = %+v, want {100 288}", fz)
	}
}

func TestDedicatedFreezeInsufficientCapacity(t *testing.T) {
	// Two running jobs: 160 ends at 50, 160 ends at 150. Dedicated 320 at
	// t=100 cannot fit there (second job still running): the freeze slips
	// to t=150 where the whole machine frees.
	h := newHarness(t, 320, 32)
	h.addRunning(1, 160, 50)
	h.addRunning(2, 160, 150)
	h.addDed(3, 320, 10, 100)
	fz, onTime := DedicatedFreeze(h.ctx())
	if onTime {
		t.Fatal("320-proc job cannot start on time at t=100")
	}
	if fz.Time != 150 || fz.Capacity != 0 {
		t.Errorf("freeze = %+v, want {150 0}", fz)
	}
}

func TestDedicatedFreezeSameStartAggregation(t *testing.T) {
	// Two dedicated jobs share the start; their combined demand counts.
	h := newHarness(t, 320, 32)
	h.addDed(1, 160, 10, 100)
	h.addDed(2, 128, 10, 100)
	fz, onTime := DedicatedFreeze(h.ctx())
	if !onTime || fz.Time != 100 || fz.Capacity != 32 {
		t.Errorf("freeze = %+v onTime=%v, want {100 32} true", fz, onTime)
	}
}

func TestDedicatedFreezeDemandExceedsMachine(t *testing.T) {
	// Combined same-start demand beyond M: clamped, never negative.
	h := newHarness(t, 320, 32)
	h.addRunning(1, 64, 500)
	h.addDed(2, 320, 10, 100)
	h.addDed(3, 320, 10, 100)
	fz, onTime := DedicatedFreeze(h.ctx())
	if onTime {
		t.Fatal("640 procs can never fit")
	}
	if fz.Capacity < 0 {
		t.Errorf("freeze capacity negative: %+v", fz)
	}
}

func TestDedicatedFreezeEmptyPanics(t *testing.T) {
	h := newHarness(t, 320, 32)
	defer func() {
		if recover() == nil {
			t.Error("DedicatedFreeze with empty queue did not panic")
		}
	}()
	DedicatedFreeze(h.ctx())
}

func TestContextWindow(t *testing.T) {
	h := newHarness(t, 320, 32)
	h.addBatch(1, 64, 10)
	h.addBatch(2, 320, 10) // too big for m=128
	h.addBatch(3, 96, 10)
	h.addBatch(4, 128, 10)
	c := h.ctx()
	w := c.Window(128, 0)
	if len(w) != 3 || w[0].ID != 1 || w[1].ID != 3 || w[2].ID != 4 {
		t.Fatalf("window wrong: %v", w)
	}
	w = c.Window(128, 2)
	if len(w) != 2 || w[1].ID != 3 {
		t.Fatalf("lookahead cap wrong: %v", w)
	}
}

func TestHeadShadowComputation(t *testing.T) {
	// free 64; running: 96 ends 100, 128 ends 200, 32 ends 300.
	// head 256: cum 64+96=160 <256; +128=288 >=256 at t=200:
	// fret 200, frec 288-256=32.
	h := newHarness(t, 320, 32)
	h.addRunning(1, 96, 100)
	h.addRunning(2, 128, 200)
	h.addRunning(3, 32, 300)
	head := h.addBatch(4, 256, 1000)
	fret, frec, ok := HeadShadow(h.ctx(), head)
	if !ok || fret != 200 || frec != 32 {
		t.Errorf("HeadShadow = (%d, %d, %v), want (200, 32, true)", fret, frec, ok)
	}
}

func TestHeadShadowImpossible(t *testing.T) {
	h := newHarness(t, 320, 32)
	head := h.addBatch(1, 352, 1000) // larger than machine
	if _, _, ok := HeadShadow(h.ctx(), head); ok {
		t.Error("impossible head got a shadow")
	}
}

func TestHeadShadowNeverFitsDuringOutage(t *testing.T) {
	// Two of ten groups are down, so the in-service machine (256) is
	// smaller than the 288 head even once every running job drains: the
	// head has no shadow, and EASY backfills nothing past it — not even a
	// 32 that fits now and would finish long before any reservation.
	h := newHarness(t, 320, 32)
	if _, _, err := h.mach.FailGroups([]int{8, 9}); err != nil {
		t.Fatal(err)
	}
	h.addRunning(1, 64, 100)
	head := h.addBatch(2, 288, 1000)
	h.addBatch(3, 32, 10)
	if _, _, ok := HeadShadow(h.ctx(), head); ok {
		t.Error("head larger than the in-service machine got a shadow")
	}
	c := h.ctx()
	(&EASY{}).Schedule(c)
	if c.Starts != 0 {
		t.Errorf("EASY started %d jobs past a head that can never fit", c.Starts)
	}
}

func TestContextStartTracksProgress(t *testing.T) {
	h := newHarness(t, 320, 32)
	j := h.addBatch(1, 64, 10)
	c := h.ctx()
	if c.Progress || c.Starts != 0 {
		t.Fatal("fresh context dirty")
	}
	c.Start(j)
	if !c.Progress || c.Starts != 1 {
		t.Error("Start did not record progress")
	}
	if h.batch.Len() != 0 || h.active.Len() != 1 {
		t.Error("Start did not move the job")
	}
	if c.Free() != 320-64 {
		t.Errorf("free = %d, want 256", c.Free())
	}
}
