package sched

import (
	"testing"

	"elastisched/internal/job"
)

// retime moves a running job's kill-by time the way the engine does
// before it reports JobRetimed, and returns the old end.
func (h *harness) retime(j *job.Job, end int64) int64 {
	old := j.EndTime
	j.EndTime = end
	j.Dur = end - j.StartTime
	h.active.Reposition(j)
	return old
}

func TestDeltaTrackerRetimeHorizon(t *testing.T) {
	for _, tc := range []struct {
		name            string
		horizon         int64
		oldEnd, newEnd  int64
		keepsSettlement bool
	}{
		{"both after", 100, 150, 270, true},
		{"both before", 100, 40, 90, true},
		{"crosses later", 100, 90, 110, false},
		{"crosses earlier", 100, 110, 90, false},
		{"old end touches", 100, 100, 220, false},
		{"new end touches", 100, 40, 100, false},
		{"no horizon", NoHorizon, 100, 220, true},
		{"every retime", EveryRetime, 150, 270, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d DeltaTracker
			d.ResetDeltas()
			d.Settle(tc.horizon)
			d.JobRetimed(&job.Job{EndTime: tc.newEnd}, tc.oldEnd, 0)
			if d.settled != tc.keepsSettlement {
				t.Errorf("settled = %v after retime %d -> %d against horizon %d, want %v",
					d.settled, tc.oldEnd, tc.newEnd, tc.horizon, tc.keepsSettlement)
			}
		})
	}
}

func TestDeltaTrackerSettlesOnlyWithLiveFeed(t *testing.T) {
	var d DeltaTracker
	d.Settle(NoHorizon)
	if d.CanSkip(newHarness(t, 10, 1).ctx()) {
		t.Fatal("settled without a delta feed: nothing would ever unsettle it")
	}
}

// easyRetimeCase builds the settled EASY scenario of the horizon tests on
// a 10-processor machine: a (6 procs) ends at 100, b (2) at 300, 2 free.
// The 8-processor head's shadow is a's end, T = 100, with no extra
// capacity, so the 2-processor candidate of duration 150 cannot backfill.
func easyRetimeCase(t *testing.T) (h *harness, a, b *job.Job) {
	h = newHarness(t, 10, 1)
	a = h.addRunning(11, 6, 100)
	b = h.addRunning(12, 2, 300)
	h.addBatch(1, 8, 500)
	h.addBatch(2, 2, 150)
	return h, a, b
}

// TestEASYRetimePastShadowKeepsSkip: a retime with both ends strictly after
// the shadow time leaves the settled pass settled, and a cold pass agrees
// that nothing can start.
func TestEASYRetimePastShadowKeepsSkip(t *testing.T) {
	h, _, b := easyRetimeCase(t)
	e := &EASY{}
	e.ResetDeltas()
	h.cycle(e)
	h.wantStarted()
	if !e.CanSkip(h.ctx()) {
		t.Fatal("the clean pass did not settle")
	}
	e.JobRetimed(b, h.retime(b, 420), h.now)
	if !e.CanSkip(h.ctx()) {
		t.Fatal("a retime past the shadow time unsettled EASY")
	}
	h.cycle(&EASY{})
	h.wantStarted()
}

// TestEASYRetimeAtShadowUnsettles: a retime touching (old end == T) or
// crossing the shadow time moves the shadow later, which admits the
// candidate; warm and cold passes must both start it.
func TestEASYRetimeAtShadowUnsettles(t *testing.T) {
	for _, tc := range []struct {
		name string
		move func(h *harness, a, b *job.Job) (*job.Job, int64)
	}{
		// a ends at T = 100 exactly; pushed to 200 the shadow follows.
		{"touch", func(h *harness, a, b *job.Job) (*job.Job, int64) { return a, h.retime(a, 200) }},
		// b moves from after T to before it: the shadow stays at 100, but
		// b's processors are free there, so the extra capacity grows to 2.
		{"cross", func(h *harness, a, b *job.Job) (*job.Job, int64) { return b, h.retime(b, 60) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warmH, wa, wb := easyRetimeCase(t)
			e := &EASY{}
			e.ResetDeltas()
			warmH.cycle(e)
			j, old := tc.move(warmH, wa, wb)
			e.JobRetimed(j, old, warmH.now)
			if e.CanSkip(warmH.ctx()) {
				t.Fatal("a retime touching or crossing the shadow time kept EASY settled")
			}
			coldH, ca, cb := easyRetimeCase(t)
			tc.move(coldH, ca, cb)
			warmH.cycle(e)
			coldH.cycle(&EASY{})
			warmH.wantStarted(2)
			coldH.wantStarted(2)
		})
	}
}

// TestEASYDUnsettlesOnEveryRetime: EASY-D's dedicated freeze reads end
// times beyond the head's shadow. Here the dedicated demand drains only at
// a's end (200, late branch), which blocks the long candidate; a's retime
// to 300 lies past the batch head's shadow (100) yet moves the freeze, and
// the candidate must then start.
func TestEASYDUnsettlesOnEveryRetime(t *testing.T) {
	h := newHarness(t, 10, 1)
	h.addRunning(11, 4, 100)
	a := h.addRunning(12, 4, 200)
	h.addDed(21, 10, 100, 150)
	h.addBatch(1, 5, 500)
	h.addBatch(2, 1, 250)
	e := &EASY{Ded: true}
	e.ResetDeltas()
	h.cycle(e)
	h.wantStarted()
	e.JobRetimed(a, h.retime(a, 300), h.now)
	if e.CanSkip(h.ctx()) {
		t.Fatal("EASY-D absorbed a retime")
	}
	h.cycle(e)
	h.wantStarted(2)
}
