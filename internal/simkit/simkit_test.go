package simkit

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		e.AtArg(at, func(now Time, _ any) { got = append(got, now) }, nil)
	}
	e.Run()
	want := []Time{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtArg(100, func(Time, any) { order = append(order, i) }, nil)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events dispatched out of FIFO order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	e.AtArg(7, func(now Time, _ any) {
		if now != 7 {
			t.Errorf("handler saw now=%d, want 7", now)
		}
	}, nil)
	if e.Now() != 0 {
		t.Fatalf("initial clock %d, want 0", e.Now())
	}
	e.Run()
	if e.Now() != 7 {
		t.Errorf("final clock %d, want 7", e.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var at Time
	e.AtArg(10, func(Time, any) {
		e.AtArg(e.Now()+5, func(now Time, _ any) { at = now }, nil)
	}, nil)
	e.Run()
	if at != 15 {
		t.Errorf("Now()+5 from t=10 fired at %d, want 15", at)
	}
}

func TestCancelPreventsDispatch(t *testing.T) {
	e := New()
	fired := false
	ev := e.AtArg(10, func(Time, any) { fired = true }, nil)
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for a pending event")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if ev.Scheduled() {
		t.Error("Scheduled() true after cancel")
	}
}

func TestCancelTwiceIsFalse(t *testing.T) {
	e := New()
	ev := e.AtArg(10, func(Time, any) {}, nil)
	e.Cancel(ev)
	if e.Cancel(ev) {
		t.Error("second Cancel returned true")
	}
	if e.Cancel(Handle{}) {
		t.Error("Cancel of zero handle returned true")
	}
}

func TestCancelFiredEventIsFalse(t *testing.T) {
	e := New()
	ev := e.AtArg(1, func(Time, any) {}, nil)
	e.Run()
	if e.Cancel(ev) {
		t.Error("Cancel of already-fired event returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []Time
	evs := make([]Handle, 0, 10)
	for i := Time(1); i <= 10; i++ {
		i := i
		evs = append(evs, e.AtArg(i, func(now Time, _ any) { got = append(got, now) }, nil))
	}
	e.Cancel(evs[4]) // t=5
	e.Cancel(evs[7]) // t=8
	e.Run()
	for _, ts := range got {
		if ts == 5 || ts == 8 {
			t.Fatalf("cancelled timestamp %d fired", ts)
		}
	}
	if len(got) != 8 {
		t.Fatalf("dispatched %d, want 8", len(got))
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.AtArg(10, func(Time, any) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling before now did not panic")
			}
		}()
		e.AtArg(5, func(Time, any) {}, nil)
	}, nil)
	e.Run()
}

func TestStepTimestampBatchesOneInstant(t *testing.T) {
	e := New()
	count5, count9 := 0, 0
	e.AtArg(5, func(Time, any) { count5++ }, nil)
	e.AtArg(5, func(Time, any) {
		count5++
		// Cascade at the same instant: must be included in this batch.
		e.AtArg(5, func(Time, any) { count5++ }, nil)
	}, nil)
	e.AtArg(9, func(Time, any) { count9++ }, nil)

	ts, ok := e.StepTimestamp()
	if !ok || ts != 5 {
		t.Fatalf("StepTimestamp = (%d, %v), want (5, true)", ts, ok)
	}
	if count5 != 3 || count9 != 0 {
		t.Fatalf("after first instant: count5=%d count9=%d, want 3, 0", count5, count9)
	}
	ts, ok = e.StepTimestamp()
	if !ok || ts != 9 || count9 != 1 {
		t.Fatalf("second instant = (%d, %v) count9=%d, want (9, true) 1", ts, ok, count9)
	}
	if _, ok := e.StepTimestamp(); ok {
		t.Error("StepTimestamp on empty queue returned ok")
	}
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	e := New()
	fired := map[Time]bool{}
	for _, at := range []Time{1, 5, 10, 15} {
		at := at
		e.AtArg(at, func(Time, any) { fired[at] = true }, nil)
	}
	e.RunUntil(10)
	if !fired[1] || !fired[5] || !fired[10] {
		t.Errorf("events at/before deadline not all fired: %v", fired)
	}
	if fired[15] {
		t.Error("event after deadline fired")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestPeekTimeSkipsCancelled(t *testing.T) {
	e := New()
	ev := e.AtArg(3, func(Time, any) {}, nil)
	e.AtArg(8, func(Time, any) {}, nil)
	e.Cancel(ev)
	if tm, ok := e.PeekTime(); !ok || tm != 8 {
		t.Errorf("PeekTime = (%d, %v), want (8, true)", tm, ok)
	}
}

func TestDispatchedCounter(t *testing.T) {
	e := New()
	for i := Time(0); i < 5; i++ {
		e.AtArg(i, func(Time, any) {}, nil)
	}
	e.Run()
	if e.Dispatched() != 5 {
		t.Errorf("Dispatched = %d, want 5", e.Dispatched())
	}
}

func TestHandlersCanScheduleChains(t *testing.T) {
	e := New()
	depth := 0
	var chain ArgHandler
	chain = func(now Time, _ any) {
		depth++
		if depth < 100 {
			e.AtArg(e.Now()+1, chain, nil)
		}
	}
	e.AtArg(0, chain, nil)
	end := e.Run()
	if depth != 100 {
		t.Errorf("chain depth %d, want 100", depth)
	}
	if end != 99 {
		t.Errorf("final time %d, want 99", end)
	}
}

// Property: for any set of event times, dispatch order is the sorted order.
func TestPropertyDispatchSorted(t *testing.T) {
	f := func(times []uint16) bool {
		e := New()
		var got []Time
		for _, x := range times {
			at := Time(x)
			e.AtArg(at, func(now Time, _ any) { got = append(got, now) }, nil)
		}
		e.Run()
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := New()
	stale := e.AtArg(1, func(Time, any) {}, nil)
	e.Run() // fires; the record returns to the free list

	// The next AtArg must reuse the record (LIFO free list); the stale handle
	// now points at a live event of a later generation.
	fired := false
	fresh := e.AtArg(5, func(Time, any) { fired = true }, nil)
	if fresh.ev != stale.ev {
		t.Fatalf("free list did not recycle the record")
	}
	if e.Cancel(stale) {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if !fresh.Scheduled() {
		t.Fatal("fresh event lost its scheduling")
	}
	e.Run()
	if !fired {
		t.Error("recycled event did not fire")
	}
}

func TestStaleHandleAfterCancelCannotCancelRecycledEvent(t *testing.T) {
	e := New()
	stale := e.AtArg(10, func(Time, any) {}, nil)
	if !e.Cancel(stale) {
		t.Fatal("first cancel failed")
	}
	// Cancellation is lazy: the record returns to the free list when its
	// dead queue entry is popped. Drain to flush it out.
	e.Run()
	fired := false
	fresh := e.AtArg(20, func(Time, any) { fired = true }, nil)
	if fresh.ev != stale.ev {
		t.Fatalf("free list did not recycle the record")
	}
	if e.Cancel(stale) {
		t.Fatal("stale handle cancelled the reissued event")
	}
	e.Run()
	if !fired {
		t.Error("reissued event did not fire")
	}
}

func TestEventRecordsAreReused(t *testing.T) {
	e := New()
	e.AtArg(1, func(Time, any) {}, nil)
	e.Run()
	// The free list is refilled in blocks; what matters is that the
	// steady-state schedule/dispatch cycle never grows it — every AtArg is
	// served by the record the previous Step released.
	size := len(e.freeIDs)
	if size == 0 {
		t.Fatal("free list empty after drain")
	}
	for i := Time(2); i < 100; i++ {
		e.AtArg(i, func(Time, any) {}, nil)
		e.Step()
		if len(e.freeIDs) != size {
			t.Fatalf("t=%d: free list holds %d records, want %d", i, len(e.freeIDs), size)
		}
	}
}

func TestPendingCounter(t *testing.T) {
	e := New()
	if e.Pending() != 0 {
		t.Fatalf("Pending on empty engine = %d", e.Pending())
	}
	hs := make([]Handle, 0, 10)
	for i := Time(1); i <= 10; i++ {
		hs = append(hs, e.AtArg(i, func(Time, any) {}, nil))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	e.Cancel(hs[3])
	e.Cancel(hs[3]) // double cancel must not double count
	if e.Pending() != 9 {
		t.Fatalf("Pending after cancel = %d, want 9", e.Pending())
	}
	e.Step()
	if e.Pending() != 8 {
		t.Fatalf("Pending after step = %d, want 8", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
}

func TestAtArgDeliversArgument(t *testing.T) {
	e := New()
	var got []int
	record := func(_ Time, arg any) { got = append(got, arg.(int)) }
	for i := 0; i < 5; i++ {
		e.AtArg(Time(i), record, i)
	}
	e.Run()
	if len(got) != 5 {
		t.Fatalf("dispatched %d arg events, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Errorf("arg %d = %d, want %d", i, v, i)
		}
	}
}

func TestHandleTime(t *testing.T) {
	e := New()
	h := e.AtArg(42, func(Time, any) {}, nil)
	if tm, ok := h.Time(); !ok || tm != 42 {
		t.Errorf("Time = (%d, %v), want (42, true)", tm, ok)
	}
	e.Run()
	if _, ok := h.Time(); ok {
		t.Error("Time ok after fire")
	}
}

// Property: cancelling a random subset removes exactly those events.
func TestPropertyCancelSubset(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		e := New()
		n := 1 + r.Intn(50)
		fired := 0
		evs := make([]Handle, n)
		for i := 0; i < n; i++ {
			evs[i] = e.AtArg(Time(r.Intn(100)), func(Time, any) { fired++ }, nil)
		}
		cancelled := 0
		for _, ev := range evs {
			if r.Float64() < 0.3 {
				if e.Cancel(ev) {
					cancelled++
				}
			}
		}
		e.Run()
		if fired != n-cancelled {
			t.Fatalf("trial %d: fired %d, want %d", trial, fired, n-cancelled)
		}
	}
}

// TestResetMatchesNew checks that a reset engine with pending heap and
// static events behaves as a new one: nothing pending, clock and counters
// at zero, handles from before the reset stale, and a replayed schedule
// dispatched in the same order.
func TestResetMatchesNew(t *testing.T) {
	var got []int
	record := func(_ Time, arg any) { got = append(got, arg.(int)) }
	schedule := func(e *Engine) Handle {
		e.OnStatic(func(_ Time, k StaticKind, idx int) { got = append(got, 100*int(k)+idx) })
		for i := 0; i < 300; i++ {
			e.AtStatic(Time(i%7), 1, i)
			e.AtArg(Time(i%5), record, i)
		}
		return e.AtArg(3, record, -1)
	}
	fresh := New()
	schedule(fresh)
	fresh.Run()
	want := got

	e := New()
	h := schedule(e)
	e.RunUntil(2)
	e.Cancel(e.AtArg(4, record, -2))
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 || e.Dispatched() != 0 {
		t.Fatalf("after Reset: pending %d, now %d, dispatched %d", e.Pending(), e.Now(), e.Dispatched())
	}
	if h.Scheduled() || e.Cancel(h) {
		t.Fatal("a handle from before Reset is still live")
	}
	got = nil
	schedule(e)
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("reset engine dispatched %d events, new engine %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: reset engine dispatched %d, new engine %d", i, got[i], want[i])
		}
	}
}
