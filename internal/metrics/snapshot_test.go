package metrics

import (
	"errors"
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
	restored, err := NewCollectorFromSnapshot(orig.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
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
	got, err := NewCollectorFromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.st.JobsDone != 0 || got.st.Busy != 64 {
		t.Errorf("restored collector state wrong: done=%d busy=%d", got.st.JobsDone, got.st.Busy)
	}
}

// filledSnapshot returns a snapshot whose every field is non-zero and
// which passes NewCollectorFromSnapshot's checks: each numeric field holds
// a distinct value, and each series holds two records.
func filledSnapshot(t *testing.T) Snapshot {
	t.Helper()
	var s Snapshot
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			for k := 0; k < 2; k++ {
				e := f.Index(k)
				if e.Kind() == reflect.Float64 {
					e.SetFloat(float64(10*i + k + 1))
					continue
				}
				for n := 0; n < e.NumField(); n++ {
					switch e.Field(n).Kind() {
					case reflect.Int, reflect.Int64:
						e.Field(n).SetInt(int64(10*i + k + 1))
					case reflect.Float64:
						e.Field(n).SetFloat(float64(10*i+k) + 0.25)
					}
				}
			}
		}
		if f.IsZero() {
			t.Fatalf("filledSnapshot cannot fill field %s of kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	s.JobsDone = len(s.Waits)
	return s
}

// TestSnapshotRestoreLossless checks that Snapshot -> NewCollectorFromSnapshot
// -> Snapshot carries every field of the record, and that neither direction
// shares a series with the live collector.
func TestSnapshotRestoreLossless(t *testing.T) {
	want := filledSnapshot(t)
	c, err := NewCollectorFromSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost state:\n got %+v\nwant %+v", got, want)
	}
	live := c.Samples()
	for name, s := range map[string]Snapshot{"restored from": want, "taken": got} {
		if &s.Waits[0] == &live.Waits[0] || &s.PerJob[0] == &live.PerJob[0] || &s.BusySteps[0] == &live.BusySteps[0] {
			t.Errorf("the collector shares a series with the snapshot it was %s", name)
		}
	}
}

// TestNewCollectorFromSnapshotRejectsInconsistentSeries checks the metrics
// layer's validator: series lengths must match JobsDone and busy steps
// must not go back in time.
func TestNewCollectorFromSnapshotRejectsInconsistentSeries(t *testing.T) {
	for name, edit := range map[string]func(*Snapshot){
		"waits too long":    func(s *Snapshot) { s.Waits = append(s.Waits, s.Waits...) },
		"per-job too short": func(s *Snapshot) { s.PerJob = s.PerJob[:1] },
		"jobs done edited":  func(s *Snapshot) { s.JobsDone++ },
		"busy steps reversed": func(s *Snapshot) {
			s.BusySteps[0].T, s.BusySteps[1].T = s.BusySteps[1].T, s.BusySteps[0].T
		},
	} {
		s := filledSnapshot(t)
		edit(&s)
		if _, err := NewCollectorFromSnapshot(s); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}
