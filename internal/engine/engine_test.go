package engine

import (
	"math"
	"strings"
	"testing"

	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/job"
	"elastisched/internal/machine"
	"elastisched/internal/sched"
	"elastisched/internal/trace"
	"elastisched/internal/workload"
)

func batch(id, size int, dur, arr int64) *job.Job {
	return &job.Job{ID: id, Size: size, Dur: dur, Arrival: arr, ReqStart: -1, Class: job.Batch}
}

func ded(id, size int, dur, arr, start int64) *job.Job {
	return &job.Job{ID: id, Size: size, Dur: dur, Arrival: arr, ReqStart: start, Class: job.Dedicated}
}

func wl(jobs ...*job.Job) *cwf.Workload {
	w := &cwf.Workload{Jobs: jobs}
	w.Sort()
	return w
}

func mustRun(t *testing.T, w *cwf.Workload, cfg Config) *Result {
	t.Helper()
	if cfg.M == 0 {
		cfg.M = 320
	}
	if cfg.Unit == 0 {
		cfg.Unit = 32
	}
	cfg.Paranoid = true
	r, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSingleJobLifecycle(t *testing.T) {
	w := wl(batch(1, 160, 100, 0))
	r := mustRun(t, w, Config{Scheduler: sched.FCFS{}})
	s := r.Summary
	if s.Jobs != 1 || s.MeanWait != 0 || s.MeanRun != 100 || s.Utilization != 0.5 {
		t.Errorf("summary wrong: %+v", s)
	}
}

func TestFCFSSerializesConflictingJobs(t *testing.T) {
	// Two 320-proc jobs arriving together must run back to back.
	w := wl(batch(1, 320, 100, 0), batch(2, 320, 100, 0))
	r := mustRun(t, w, Config{Scheduler: sched.FCFS{}})
	s := r.Summary
	if s.MeanWait != 50 { // 0 and 100
		t.Errorf("mean wait = %g, want 50", s.MeanWait)
	}
	if s.Utilization != 1 {
		t.Errorf("utilization = %g, want 1", s.Utilization)
	}
	if s.WindowEnd != 200 {
		t.Errorf("makespan end = %d, want 200", s.WindowEnd)
	}
}

func TestWorkloadNotMutatedAcrossRuns(t *testing.T) {
	w := wl(batch(1, 320, 100, 0), batch(2, 64, 50, 10), batch(3, 64, 50, 20))
	r1 := mustRun(t, w, Config{Scheduler: &sched.EASY{}})
	// Jobs in the input workload must still look freshly submitted: the
	// engine runs on clones.
	for _, j := range w.Jobs {
		if j.State != job.Waiting || j.StartTime != 0 || j.FinishTime != 0 || j.SCount != 0 {
			t.Fatalf("engine mutated input job %v", j)
		}
	}
	r2 := mustRun(t, w, Config{Scheduler: &sched.EASY{}})
	if r1.Summary != r2.Summary {
		t.Fatalf("same workload, same config, different results:\n%+v\n%+v", r1.Summary, r2.Summary)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 200
	p.PD, p.PE, p.PR = 0.3, 0.2, 0.1
	p.TargetLoad = 0.9
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scheduler: core.NewHybridLOS(7), ProcessECC: true}
	r1 := mustRun(t, w, cfg)
	cfg.Scheduler = core.NewHybridLOS(7)
	r2 := mustRun(t, w, cfg)
	if r1.Summary != r2.Summary || r1.Events != r2.Events {
		t.Fatal("simulation not deterministic")
	}
}

func TestAreaConservation(t *testing.T) {
	// Without ECCs, integrated busy area must equal the sum of job areas
	// exactly: util * M * window = sum(size*dur).
	p := workload.DefaultParams()
	p.N = 300
	p.TargetLoad = 0.9
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var area float64
	for _, j := range w.Jobs {
		area += float64(j.Size) * float64(j.Dur)
	}
	for _, s := range []sched.Scheduler{sched.FCFS{}, &sched.EASY{}, core.NewLOS(false), core.NewDelayedLOS(7)} {
		r := mustRun(t, w, Config{Scheduler: s})
		got := r.Summary.Utilization * 320 * float64(r.Summary.WindowEnd-r.Summary.WindowStart)
		if math.Abs(got-area)/area > 1e-9 {
			t.Errorf("%s: busy area %g, want %g", s.Name(), got, area)
		}
	}
}

func TestAllJobsFinish(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 400
	p.PD = 0.4
	p.TargetLoad = 1.0
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, w, Config{Scheduler: core.NewHybridLOS(7)})
	if r.Summary.JobsFinished != 400 {
		t.Errorf("finished %d, want 400", r.Summary.JobsFinished)
	}
}

func TestDedicatedNeverStartsEarly(t *testing.T) {
	w := wl(
		batch(1, 64, 50, 0),
		ded(2, 96, 100, 0, 500),
		ded(3, 96, 100, 10, 700),
	)
	r := mustRun(t, w, Config{Scheduler: core.NewHybridLOS(7)})
	_ = r
	// Re-run capturing per-job state via a second simulation on a scheduler
	// that records: simpler — dedicated wait >= 0 is enforced by Wait();
	// verify on-time here (idle machine: both must start exactly on time).
	if r.Summary.DedicatedOnTime != 1 {
		t.Errorf("dedicated on-time = %g, want 1 on an idle machine", r.Summary.DedicatedOnTime)
	}
}

func TestDedicatedRejectedByBatchOnlyScheduler(t *testing.T) {
	w := wl(ded(1, 96, 100, 0, 100))
	if _, err := Run(w, Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}}); err == nil {
		t.Fatal("batch-only scheduler accepted dedicated workload")
	}
}

func TestInvalidWorkloadRejected(t *testing.T) {
	w := wl(batch(1, 999, 100, 0))
	if _, err := Run(w, Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}}); err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestNoSchedulerRejected(t *testing.T) {
	if _, err := Run(wl(), Config{M: 320}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}

func TestSizesQuantizedUp(t *testing.T) {
	// A 100-proc job on a 32-quantized machine occupies 128.
	w := wl(batch(1, 100, 100, 0))
	r := mustRun(t, w, Config{Scheduler: sched.FCFS{}})
	want := float64(128*100) / float64(320*100)
	if math.Abs(r.Summary.Utilization-want) > 1e-12 {
		t.Errorf("utilization %g, want %g", r.Summary.Utilization, want)
	}
}

func TestECCExtendsRunningJob(t *testing.T) {
	w := wl(batch(1, 320, 100, 0))
	w.Commands = []cwf.Command{{JobID: 1, Issue: 50, Type: cwf.ExtendTime, Amount: 60}}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}, ProcessECC: true})
	if r.Summary.MeanRun != 160 {
		t.Errorf("run = %g, want 160 after ET", r.Summary.MeanRun)
	}
	if r.ECC.Applied != 1 {
		t.Errorf("applied = %d, want 1", r.ECC.Applied)
	}
}

func TestECCReducesRunningJobToNow(t *testing.T) {
	w := wl(batch(1, 320, 100, 0))
	w.Commands = []cwf.Command{{JobID: 1, Issue: 30, Type: cwf.ReduceTime, Amount: 500}}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}, ProcessECC: true})
	if r.Summary.MeanRun != 30 {
		t.Errorf("run = %g, want 30 (killed at the command instant)", r.Summary.MeanRun)
	}
}

func TestECCOnQueuedJob(t *testing.T) {
	// Job 2 queued behind job 1; an RT while queued shortens its eventual
	// run.
	w := wl(batch(1, 320, 100, 0), batch(2, 320, 100, 0))
	w.Commands = []cwf.Command{{JobID: 2, Issue: 50, Type: cwf.ReduceTime, Amount: 40}}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}, ProcessECC: true})
	if r.Summary.MeanRun != 80 { // (100 + 60) / 2
		t.Errorf("mean run = %g, want 80", r.Summary.MeanRun)
	}
}

func TestECCReducedJobFreesCapacityEarlier(t *testing.T) {
	// Job 1 (320, 100s) gets RT to end at t=40; job 2 then starts at 40.
	w := wl(batch(1, 320, 100, 0), batch(2, 320, 10, 0))
	w.Commands = []cwf.Command{{JobID: 1, Issue: 40, Type: cwf.ReduceTime, Amount: 60}}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}, ProcessECC: true})
	// Window 0..50; wait = (0 + 40)/2 = 20.
	if r.Summary.MeanWait != 20 || r.Summary.WindowEnd != 50 {
		t.Errorf("wait = %g end = %d, want 20, 50", r.Summary.MeanWait, r.Summary.WindowEnd)
	}
}

func TestECCDroppedWithoutProcessor(t *testing.T) {
	w := wl(batch(1, 320, 100, 0))
	w.Commands = []cwf.Command{{JobID: 1, Issue: 50, Type: cwf.ExtendTime, Amount: 60}}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}})
	if r.DroppedECC != 1 {
		t.Errorf("dropped = %d, want 1", r.DroppedECC)
	}
	if r.Summary.MeanRun != 100 {
		t.Errorf("run = %g, want 100 (command dropped)", r.Summary.MeanRun)
	}
}

func TestECCAfterJobFinishedIgnored(t *testing.T) {
	w := wl(batch(1, 320, 100, 0))
	w.Commands = []cwf.Command{{JobID: 1, Issue: 150, Type: cwf.ExtendTime, Amount: 60}}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}, ProcessECC: true})
	if r.ECC.IgnoredFinished != 1 {
		t.Errorf("ignored-finished = %d, want 1", r.ECC.IgnoredFinished)
	}
}

func TestECCMaxPerJobEnforced(t *testing.T) {
	w := wl(batch(1, 320, 100, 0))
	w.Commands = []cwf.Command{
		{JobID: 1, Issue: 10, Type: cwf.ExtendTime, Amount: 10},
		{JobID: 1, Issue: 20, Type: cwf.ExtendTime, Amount: 10},
	}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}, ProcessECC: true, MaxECCPerJob: 1})
	if r.ECC.Applied != 1 || r.ECC.IgnoredLimit != 1 {
		t.Errorf("ECC stats: %+v", r.ECC)
	}
	if r.Summary.MeanRun != 110 {
		t.Errorf("run = %g, want 110", r.Summary.MeanRun)
	}
}

func TestEPGrowsRunningJobWhenFree(t *testing.T) {
	w := wl(batch(1, 64, 100, 0))
	w.Commands = []cwf.Command{{JobID: 1, Issue: 50, Type: cwf.ExtendProc, Amount: 64}}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}, ProcessECC: true})
	// Area: 64*50 + 128*50 = 9600 over 320*100.
	want := 9600.0 / 32000.0
	if math.Abs(r.Summary.Utilization-want) > 1e-12 {
		t.Errorf("utilization %g, want %g", r.Summary.Utilization, want)
	}
	if r.ECC.GrownProcs != 64 {
		t.Errorf("grown %d, want 64", r.ECC.GrownProcs)
	}
}

func TestRPShrinkLetsWaiterIn(t *testing.T) {
	// Job 1 holds the machine; an RP at t=50 frees 160, letting job 2 in.
	w := wl(batch(1, 320, 100, 0), batch(2, 160, 50, 0))
	w.Commands = []cwf.Command{{JobID: 1, Issue: 50, Type: cwf.ReduceProc, Amount: 160}}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}, ProcessECC: true})
	// Job 2 starts at 50 (wait 50); job 1 waited 0.
	if r.Summary.MeanWait != 25 {
		t.Errorf("mean wait %g, want 25", r.Summary.MeanWait)
	}
}

func TestDedicatedWakeEventTriggersStart(t *testing.T) {
	// Nothing else happens at t=500; the engine must wake the scheduler.
	w := wl(ded(1, 96, 100, 0, 500))
	r := mustRun(t, w, Config{Scheduler: core.NewHybridLOS(7)})
	if r.Summary.DedicatedOnTime != 1 {
		t.Errorf("dedicated job missed its wake event: ontime=%g", r.Summary.DedicatedOnTime)
	}
	if r.Summary.WindowEnd != 600 {
		t.Errorf("window end %d, want 600", r.Summary.WindowEnd)
	}
}

func TestResultCounters(t *testing.T) {
	w := wl(batch(1, 320, 100, 0), batch(2, 320, 100, 0))
	r := mustRun(t, w, Config{Scheduler: sched.FCFS{}})
	if r.Events == 0 || r.Cycles == 0 {
		t.Errorf("counters empty: %+v", r)
	}
}

func TestEmptyWorkload(t *testing.T) {
	r := mustRun(t, wl(), Config{Scheduler: sched.FCFS{}})
	if r.Summary.Jobs != 0 {
		t.Errorf("empty workload produced jobs: %+v", r.Summary)
	}
}

func TestPrematureTerminationFreesCapacityEarly(t *testing.T) {
	// Job 1 asks for 100s but actually runs 30s; job 2 (whole machine)
	// starts as soon as it really ends.
	a := batch(1, 320, 100, 0)
	a.Actual = 30
	w := wl(a, batch(2, 320, 10, 0))
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}})
	if r.Summary.WindowEnd != 40 {
		t.Errorf("window end %d, want 40 (30s actual + 10s)", r.Summary.WindowEnd)
	}
	if r.Summary.MeanRun != 20 { // (30 + 10) / 2
		t.Errorf("mean run %g, want 20", r.Summary.MeanRun)
	}
}

func TestOverrunningJobKilledAtKillBy(t *testing.T) {
	a := batch(1, 320, 100, 0)
	a.Actual = 500 // wants 500s but asked for 100
	r := mustRun(t, wl(a), Config{Scheduler: &sched.EASY{}})
	if r.Summary.MeanRun != 100 {
		t.Errorf("mean run %g, want 100 (killed at kill-by)", r.Summary.MeanRun)
	}
}

func TestETRescuesOverrunningJob(t *testing.T) {
	// The job would be killed at t=100; an ET at t=50 extends the kill-by
	// past its actual need, so it finishes naturally at t=150.
	a := batch(1, 320, 100, 0)
	a.Actual = 150
	w := wl(a)
	w.Commands = []cwf.Command{{JobID: 1, Issue: 50, Type: cwf.ExtendTime, Amount: 200}}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}, ProcessECC: true})
	if r.Summary.MeanRun != 150 {
		t.Errorf("mean run %g, want 150 (rescued by ET)", r.Summary.MeanRun)
	}
}

func TestRTKillsBeforeActualCompletion(t *testing.T) {
	// Premature job (actual 80 < dur 100); an RT at t=20 pulls the
	// kill-by to t=50, below the actual need: killed at 50.
	a := batch(1, 320, 100, 0)
	a.Actual = 80
	w := wl(a)
	w.Commands = []cwf.Command{{JobID: 1, Issue: 20, Type: cwf.ReduceTime, Amount: 50}}
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}, ProcessECC: true})
	if r.Summary.MeanRun != 50 {
		t.Errorf("mean run %g, want 50", r.Summary.MeanRun)
	}
}

func TestBackfillUsesEstimatesNotActuals(t *testing.T) {
	// Running job estimates 100s (actual 100). Head needs the whole
	// machine. Backfill candidate estimates 200s (would delay the head)
	// even though its actual is only 10s: EASY must NOT start it, because
	// schedulers plan with estimates.
	a := batch(1, 160, 100, 0)
	c := batch(3, 160, 200, 0)
	c.Actual = 10
	w := wl(a, batch(2, 320, 100, 0), c)
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{}})
	// If job 3 were started at t=0 it would really finish at 10 — but the
	// scheduler cannot know. Correct EASY order: job1 0..100, job2
	// 100..200, job3 200..210.
	if r.Summary.WindowEnd != 210 {
		t.Errorf("window end %d, want 210 (estimate-driven plan)", r.Summary.WindowEnd)
	}
}

func TestEstimateWorkloadCompletesEverywhere(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 200
	p.EstUniformMax = 5
	p.TargetLoad = 0.9
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"FCFS", "EASY", "CONS", "LOS", "Delayed-LOS"} {
		r, err := Run(w, Config{M: 320, Unit: 32, Scheduler: freshScheduler(name), Paranoid: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Summary.JobsFinished != 200 {
			t.Fatalf("%s: finished %d/200", name, r.Summary.JobsFinished)
		}
	}
}

func TestContiguousFragmentationDelaysJob(t *testing.T) {
	// Groups: A(1x32) B(1x32) C(1x32); B ends first, leaving a hole.
	// Job D needs 2 groups: contiguous must wait for A or C; scatter not.
	a, b, cj := batch(1, 32, 100, 0), batch(2, 32, 50, 0), batch(3, 32, 100, 0)
	d := batch(4, 64, 10, 60)
	big := batch(5, 224, 50, 0) // fills groups 3..9 until t=50
	scatter := mustRun(t, wl(a, b, cj, d, big), Config{Scheduler: sched.FCFS{}})
	contig, err := Run(wl(a, b, cj, d, big), Config{
		M: 320, Unit: 32, Scheduler: sched.FCFS{}, Contiguous: true, Paranoid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if contig.Summary.JobsFinished != 5 {
		t.Fatalf("contiguous run finished %d/5", contig.Summary.JobsFinished)
	}
	if contig.Summary.MeanWait < scatter.Summary.MeanWait {
		t.Errorf("contiguous wait %.1f below scatter %.1f", contig.Summary.MeanWait, scatter.Summary.MeanWait)
	}
}

func TestMigrationRecoversFragmentation(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 300
	p.PS = 0.5
	p.TargetLoad = 0.9
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(contig, migrate bool) *Result {
		r, err := Run(w, Config{
			M: 320, Unit: 32, Scheduler: &sched.EASY{},
			Contiguous: contig, Migrate: migrate, Paranoid: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Summary.JobsFinished != 300 {
			t.Fatalf("finished %d/300", r.Summary.JobsFinished)
		}
		return r
	}
	scatter := run(false, false)
	frag := run(true, false)
	defrag := run(true, true)
	if scatter.Migrations != 0 || scatter.FragmentedRejections != 0 {
		t.Error("scatter run should not fragment or migrate")
	}
	if defrag.Migrations == 0 {
		t.Error("migration run never compacted")
	}
	// Migration must not be worse than plain contiguous, and scatter is
	// the upper bound.
	if defrag.Summary.MeanWait > frag.Summary.MeanWait*1.001 {
		t.Errorf("migration wait %.1f worse than fragmented %.1f",
			defrag.Summary.MeanWait, frag.Summary.MeanWait)
	}
	if scatter.Summary.MeanWait > defrag.Summary.MeanWait*1.001 {
		t.Errorf("scatter wait %.1f worse than migrated %.1f",
			scatter.Summary.MeanWait, defrag.Summary.MeanWait)
	}
}

func TestContiguousAllSchedulersComplete(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 150
	p.TargetLoad = 0.9
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"FCFS", "EASY", "CONS", "LOS", "LOS+", "Delayed-LOS"} {
		for _, migrate := range []bool{false, true} {
			r, err := Run(w, Config{
				M: 320, Unit: 32, Scheduler: freshScheduler(name),
				Contiguous: true, Migrate: migrate, Paranoid: true,
			})
			if err != nil {
				t.Fatalf("%s migrate=%v: %v", name, migrate, err)
			}
			if r.Summary.JobsFinished != 150 {
				t.Fatalf("%s migrate=%v: finished %d/150", name, migrate, r.Summary.JobsFinished)
			}
		}
	}
}

// touchForever is a pathological policy that reports progress without ever
// starting anything: the engine's livelock guard must trip.
type touchForever struct{}

func (touchForever) Name() string              { return "touch-forever" }
func (touchForever) Heterogeneous() bool       { return false }
func (touchForever) Schedule(c *sched.Context) { c.Touch() }

func TestLivelockGuardTrips(t *testing.T) {
	w := wl(batch(1, 32, 10, 0))
	_, err := Run(w, Config{M: 320, Unit: 32, Scheduler: touchForever{}})
	if err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("livelock not detected: %v", err)
	}
}

// neverStarts ignores all work: the engine must report the deadlock rather
// than returning an empty success.
type neverStarts struct{}

func (neverStarts) Name() string              { return "never-starts" }
func (neverStarts) Heterogeneous() bool       { return false }
func (neverStarts) Schedule(c *sched.Context) {}

func TestSchedulerDeadlockDetected(t *testing.T) {
	w := wl(batch(1, 32, 10, 0))
	_, err := Run(w, Config{M: 320, Unit: 32, Scheduler: neverStarts{}})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not detected: %v", err)
	}
}

// overAllocator starts a job that does not fit: the engine must panic (a
// policy bug, not a runtime condition).
type overAllocator struct{}

func (overAllocator) Name() string        { return "over-allocator" }
func (overAllocator) Heterogeneous() bool { return false }
func (overAllocator) Schedule(c *sched.Context) {
	if h := c.Batch.Head(); h != nil {
		c.Start(h)
	}
}

func TestOversubscribingPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscription did not panic")
		}
	}()
	// Two whole-machine jobs at once; the policy starts both.
	w := wl(batch(1, 320, 10, 0), batch(2, 320, 10, 0))
	Run(w, Config{M: 320, Unit: 32, Scheduler: overAllocator{}}) //nolint:errcheck
}

// TestObserverRecordsLifecycle follows one job through arrival, dispatch,
// an ET +10 command and completion on the Observer path: the recorded span
// must stretch to the extended kill-by time.
func TestObserverRecordsLifecycle(t *testing.T) {
	w := wl(batch(1, 320, 100, 0))
	w.Commands = []cwf.Command{{JobID: 1, Issue: 50, Type: cwf.ExtendTime, Amount: 10}}
	rec := trace.NewRecorder(320, 32)
	res, err := Run(w, Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, ProcessECC: true, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.ECC.Applied != 1 {
		t.Errorf("ECC applied = %d, want 1", res.ECC.Applied)
	}
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].JobID != 1 || spans[0].Start != 0 || spans[0].End != 110 {
		t.Fatalf("spans = %+v, want job 1 over [0, 110]", spans)
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	mk := func() *Session {
		return &Session{
			cfg:    Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}},
			mach:   machine.New(320, 32),
			batch:  job.NewBatchQueue(),
			ded:    job.NewDedicatedQueue(),
			active: job.NewActiveList(),
		}
	}

	if err := mk().checkInvariants(); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}

	// Active list holds a job the machine does not know about.
	s := mk()
	s.active.Insert(&job.Job{ID: 1, Size: 64, State: job.Running, EndTime: 10, ReqStart: -1})
	if err := s.checkInvariants(); err == nil {
		t.Error("phantom active job not caught")
	}

	// Active job in a non-running state.
	s = mk()
	s.mach.Alloc(1, 64)
	s.active.Insert(&job.Job{ID: 1, Size: 64, State: job.Finished, EndTime: 10, ReqStart: -1})
	if err := s.checkInvariants(); err == nil {
		t.Error("finished job in active list not caught")
	}

	// Batch queue out of FIFO order (simulating queue corruption).
	s = mk()
	s.batch.Push(&job.Job{ID: 1, Size: 32, Dur: 1, Arrival: 100, ReqStart: -1})
	s.batch.Push(&job.Job{ID: 2, Size: 32, Dur: 1, Arrival: 50, ReqStart: -1})
	if err := s.checkInvariants(); err == nil {
		t.Error("non-FIFO batch queue not caught")
	}

	// Rigid job buried behind non-rigid work.
	s = mk()
	s.batch.Push(&job.Job{ID: 1, Size: 32, Dur: 1, Arrival: 10, ReqStart: -1})
	rigid := &job.Job{ID: 2, Size: 32, Dur: 1, Arrival: 5, ReqStart: 5, Rigid: true}
	s.batch.Push(rigid)
	if err := s.checkInvariants(); err == nil {
		t.Error("buried rigid job not caught")
	}
}
