package metrics

import (
	"reflect"
	"testing"

	"elastisched/internal/job"
)

// TestSnapshotRoundTripBitIdenticalSummary checks the core restore
// property at the metrics layer: snapshot mid-run, restore into a fresh
// collector, continue both with identical events, and the final Summary
// must be deep-equal — including float fields, whose values depend on
// accumulation order.
func TestSnapshotRoundTripBitIdenticalSummary(t *testing.T) {
	mkJob := func(id, size int, arr, start, fin int64) *job.Job {
		return &job.Job{ID: id, Size: size, Arrival: arr, StartTime: start, FinishTime: fin,
			EndTime: fin, Class: job.Batch, ReqStart: -1}
	}
	j1 := mkJob(1, 64, 0, 0, 137)
	j2 := mkJob(2, 96, 3, 10, 1913)
	j3 := mkJob(3, 32, 5, 137, 200)
	j4 := mkJob(4, 128, 9, 200, 5431)
	j5 := mkJob(5, 32, 11, 1913, 1999)
	j6 := mkJob(6, 64, 20, 2000, 2100)
	j6.Class = job.Dedicated
	j6.ReqStart = 1990

	// One chronological, capacity-feasible history (machine of 320).
	script := []func(c *Collector){
		func(c *Collector) { c.JobArrived(j1, 0) },
		func(c *Collector) { c.JobStarted(j1, 0) },
		func(c *Collector) { c.JobArrived(j2, 3) },
		func(c *Collector) { c.JobArrived(j3, 5) },
		func(c *Collector) { c.JobArrived(j4, 9) },
		func(c *Collector) { c.JobStarted(j2, 10) },
		func(c *Collector) { c.JobArrived(j5, 11) },
		func(c *Collector) { c.JobArrived(j6, 20) },
		func(c *Collector) { c.SizeChanged(+32, 50) }, // EP then RP, net zero
		func(c *Collector) { c.SizeChanged(-32, 60) },
		func(c *Collector) { c.JobFinished(j1, 137) },
		func(c *Collector) { c.JobStarted(j3, 137) },
		// ---- snapshot is taken here (index snapAt) ----
		func(c *Collector) { c.JobFinished(j3, 200) },
		func(c *Collector) { c.JobStarted(j4, 200) },
		func(c *Collector) { c.JobFinished(j2, 1913) },
		func(c *Collector) { c.JobStarted(j5, 1913) },
		func(c *Collector) { c.JobFinished(j5, 1999) },
		func(c *Collector) { c.JobStarted(j6, 2000) },
		func(c *Collector) { c.JobFinished(j6, 2100) },
		func(c *Collector) { c.JobFinished(j4, 5431) },
	}
	const snapAt = 12

	orig := NewCollector(320)
	orig.Reset(320, 6) // presized, as a loaded session's collector is
	for _, ev := range script[:snapAt] {
		ev(orig)
	}
	restored := NewCollectorFromSnapshot(orig.Snapshot())
	for _, ev := range script[snapAt:] {
		ev(orig)
		ev(restored)
	}

	a, b := orig.Summary(), restored.Summary()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("summaries diverged after round trip:\noriginal: %+v\nrestored: %+v", a, b)
	}
}

func TestSnapshotCopiesSeries(t *testing.T) {
	c := NewCollector(64)
	j := &job.Job{ID: 1, Size: 64, Arrival: 0, StartTime: 5, FinishTime: 10, EndTime: 10, ReqStart: -1}
	c.JobArrived(j, 0)
	c.JobStarted(j, 5)
	s := c.Snapshot()
	c.JobFinished(j, 10) // mutate after capture
	if len(s.Waits) != 0 || s.JobsDone != 0 {
		t.Errorf("snapshot shares state with the live collector: %+v", s)
	}
	if got := NewCollectorFromSnapshot(s); got.jobsDone != 0 || got.busy != 64 {
		t.Errorf("restored collector state wrong: done=%d busy=%d", got.jobsDone, got.busy)
	}
}
