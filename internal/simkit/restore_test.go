package simkit

import (
	"math/rand"
	"testing"
)

// Satellite regression: Cancel of the zero Handle is a guaranteed no-op —
// the engine's completion table returns zero Handles for absent IDs and
// passes them to Cancel unguarded (the RetimeRunning path).
func TestCancelZeroHandleIsNoOp(t *testing.T) {
	e := New()
	fired := 0
	e.AtArg(5, func(Time, any) { fired++ }, nil)
	e.AtArg(9, func(Time, any) { fired++ }, nil)
	for i := 0; i < 3; i++ {
		if e.Cancel(Handle{}) {
			t.Fatal("Cancel(Handle{}) returned true")
		}
	}
	if e.Pending() != 2 {
		t.Fatalf("zero-handle Cancel perturbed the queue: %d pending, want 2", e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Errorf("%d events fired, want 2", fired)
	}
}

// A handle that went stale because its record was recycled must not cancel
// the successor event, and must not report it scheduled.
func TestCancelStaleHandleIsNoOp(t *testing.T) {
	e := New()
	stale := e.AtArg(1, func(Time, any) {}, nil)
	e.Run() // fires; the record becomes reusable
	fired := false
	fresh := e.AtArg(10, func(Time, any) { fired = true }, nil)
	if e.Cancel(stale) {
		t.Error("stale Cancel returned true")
	}
	if stale.Scheduled() {
		t.Error("stale handle reports Scheduled")
	}
	e.Run()
	if !fired {
		t.Error("stale Cancel killed the recycled event")
	}
	_ = fresh
}

func TestPendingInOrderReturnsDispatchOrder(t *testing.T) {
	e := New()
	// Mixed times with duplicates; same-time events must come back in FIFO
	// (scheduling) order.
	times := []Time{30, 10, 20, 10, 30, 10, 40}
	type tag struct{ i int }
	var handles []Handle
	for i, at := range times {
		handles = append(handles, e.AtArg(at, func(Time, any) {}, &tag{i}))
	}
	e.Cancel(handles[2]) // the 20; cancelled events must not appear
	pend := e.PendingInOrder()
	wantIdx := []int{1, 3, 5, 0, 4, 6} // 10,10,10,30,30,40 in scheduling order
	if len(pend) != len(wantIdx) {
		t.Fatalf("PendingInOrder returned %d events, want %d", len(pend), len(wantIdx))
	}
	for k, pe := range pend {
		want := wantIdx[k]
		if got := pe.Arg.(*tag).i; got != want {
			t.Errorf("position %d: event %d, want %d", k, got, want)
		}
		if pe.Time != times[wantIdx[k]] {
			t.Errorf("position %d: time %d, want %d", k, pe.Time, times[wantIdx[k]])
		}
		if pe.Handle != handles[want] {
			t.Errorf("position %d: handle mismatch", k)
		}
	}
}

// Replaying PendingInOrder into a fresh engine and calling RestoreClock
// must reproduce the original dispatch sequence exactly.
func TestRestoreReplayMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := New()
	var origSeq []int
	mk := func(e *Engine, out *[]int) ArgHandler {
		return func(_ Time, arg any) { *out = append(*out, arg.(int)) }
	}
	oh := mk(orig, &origSeq)
	for i := 0; i < 200; i++ {
		orig.AtArg(Time(rng.Intn(50)), oh, i)
	}
	orig.RunUntil(20) // advance partway

	pend := orig.PendingInOrder()
	restored := New()
	var restSeq []int
	rh := mk(restored, &restSeq)
	for _, pe := range pend {
		restored.AtArg(pe.Time, rh, pe.Arg)
	}
	restored.RestoreClock(orig.Now(), orig.Dispatched())
	if restored.Now() != orig.Now() || restored.Dispatched() != orig.Dispatched() {
		t.Fatalf("clock/counter not restored: %d/%d vs %d/%d",
			restored.Now(), restored.Dispatched(), orig.Now(), orig.Dispatched())
	}

	orig.Run()
	restored.Run()
	tail := origSeq[len(origSeq)-len(restSeq):]
	if len(restSeq) != len(tail) {
		t.Fatalf("restored run dispatched %d events, original tail %d", len(restSeq), len(tail))
	}
	for i := range tail {
		if restSeq[i] != tail[i] {
			t.Fatalf("dispatch order diverged at %d: got %v, want %v", i, restSeq, tail)
		}
	}
	if restored.Dispatched() != orig.Dispatched() {
		t.Errorf("final dispatch counters differ: %d vs %d", restored.Dispatched(), orig.Dispatched())
	}
}

func TestRestoreClockRejectsPastEvents(t *testing.T) {
	e := New()
	e.AtArg(5, func(Time, any) {}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreClock with an event before now did not panic")
		}
	}()
	e.RestoreClock(10, 3)
}

func TestRestoreClockRejectsRewind(t *testing.T) {
	e := New()
	e.AtArg(5, func(Time, any) {}, nil)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreClock rewinding the clock did not panic")
		}
	}()
	e.RestoreClock(2, 0)
}
