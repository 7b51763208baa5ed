package core

import (
	"testing"

	"elastisched/internal/job"
	"elastisched/internal/sched"
	"elastisched/internal/testkit"
)

// retime moves a running job's kill-by time the way the engine does before
// it reports JobRetimed, and returns the old end.
func retime(h *testkit.Harness, j *job.Job, end int64) int64 {
	old := j.EndTime
	j.EndTime = end
	j.Dur = end - j.StartTime
	h.Active.Reposition(j)
	return old
}

// reservationCase builds a Delayed-LOS/LOS reservation pass that selects
// nobody, on a 10-processor machine: a (6 procs) ends at 100, b (2) at
// 300, 2 free. The 8-processor head reserves at fret = 100 with frec = 0,
// so the 2-processor candidate of duration 150, which would still run at
// fret, cannot backfill.
func reservationCase() (h *testkit.Harness, a, b *job.Job) {
	h = testkit.New(10, 1)
	a = h.AddRunning(11, 6, 100)
	b = h.AddRunning(12, 2, 300)
	h.AddBatch(1, 8, 500)
	h.AddBatch(2, 2, 150)
	return h, a, b
}

// stateful is the part of the LOS-family policies the horizon tests drive.
type stateful interface {
	sched.Stateful
	CanSkip(*sched.Context) bool
}

func TestLOSFamilyRetimeHorizon(t *testing.T) {
	policies := []func() stateful{
		func() stateful { return NewLOS(false) },
		func() stateful { return NewDelayedLOS(DefaultCs) },
	}
	for _, mk := range policies {
		t.Run(mk().Name(), func(t *testing.T) {
			// A retime with both ends past fret keeps the skip; a cold pass
			// agrees nothing starts.
			h, _, b := reservationCase()
			p := mk()
			p.ResetDeltas()
			h.Cycle(p)
			if len(h.Started) != 0 {
				t.Fatalf("started %v; the case must select nobody", h.StartedIDs())
			}
			if !p.CanSkip(h.Ctx()) {
				t.Fatal("an empty reservation pass did not settle")
			}
			p.JobRetimed(b, retime(h, b, 420), h.Now)
			if !p.CanSkip(h.Ctx()) {
				t.Fatal("a retime past fret unsettled the policy")
			}
			h.Cycle(mk())
			if len(h.Started) != 0 {
				t.Fatalf("cold pass started %v", h.StartedIDs())
			}

			// A retime of the job ending at fret touches it; fret moves to
			// 200, the candidate now ends before it, and warm and cold
			// passes must both start it.
			warm, wa, _ := reservationCase()
			p = mk()
			p.ResetDeltas()
			warm.Cycle(p)
			p.JobRetimed(wa, retime(warm, wa, 200), warm.Now)
			if p.CanSkip(warm.Ctx()) {
				t.Fatal("a retime touching fret kept the policy settled")
			}
			cold, ca, _ := reservationCase()
			retime(cold, ca, 200)
			warm.Cycle(p)
			cold.Cycle(mk())
			wantIDsOrder(t, warm.StartedIDs(), []int{2})
			wantIDsOrder(t, cold.StartedIDs(), []int{2})
		})
	}
}

// TestDelayedLOSBasicDPNeverSettles: a Basic_DP pass that starts nothing
// still charges the head a skip, once per instant, so it is no fixed point.
// The head fits the free capacity of a fragmented contiguous machine but no
// free run, the window is empty, and every instant must charge one more
// skip with the feed armed and no delta arriving, exactly as cold.
func TestDelayedLOSBasicDPNeverSettles(t *testing.T) {
	setup := func() (*testkit.Harness, *job.Job) {
		h := testkit.NewContiguous(10, 1)
		h.AddRunning(11, 3, 1000) // groups 0-2
		h.AddRunning(12, 2, 1000) // groups 3-4, released below
		h.AddRunning(13, 3, 1000) // groups 5-7
		h.Complete(h.Active.Find(12), 0)
		// Free: groups 3-4 and 8-9, four processors in runs of two.
		return h, h.AddBatch(1, 4, 500)
	}
	warm, wHead := setup()
	cold, cHead := setup()
	d := NewDelayedLOS(DefaultCs)
	d.ResetDeltas()
	for now := int64(0); now < 5*10; now += 10 {
		warm.Now, cold.Now = now, now
		warm.Cycle(d)
		cold.Cycle(NewDelayedLOS(DefaultCs))
		if len(warm.Started) != 0 || len(cold.Started) != 0 {
			t.Fatalf("t=%d: started warm %v, cold %v", now, warm.StartedIDs(), cold.StartedIDs())
		}
		if d.CanSkip(warm.Ctx()) {
			t.Fatalf("t=%d: a Basic_DP pass settled", now)
		}
		if wHead.SCount != cHead.SCount || wHead.SCount != int(now/10)+1 {
			t.Fatalf("t=%d: scount warm %d, cold %d, want %d", now, wHead.SCount, cHead.SCount, now/10+1)
		}
	}
}
