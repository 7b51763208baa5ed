package engine

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

// ---- Config validation (satellite) --------------------------------------

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // "" means valid
	}{
		{"valid", Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}}, ""},
		{"unit defaults to 1", Config{M: 7, Scheduler: sched.FCFS{}}, ""},
		{"unit equals machine", Config{M: 64, Unit: 64, Scheduler: sched.FCFS{}}, ""},
		{"no scheduler", Config{M: 320, Unit: 32}, "no scheduler"},
		{"zero machine", Config{M: 0, Unit: 1, Scheduler: sched.FCFS{}}, "must be positive"},
		{"negative machine", Config{M: -8, Unit: 1, Scheduler: sched.FCFS{}}, "must be positive"},
		{"unit exceeds machine", Config{M: 32, Unit: 64, Scheduler: sched.FCFS{}}, "exceeds machine size"},
		{"unit does not divide", Config{M: 320, Unit: 33, Scheduler: sched.FCFS{}}, "does not divide"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				if s == nil {
					t.Fatal("nil session for valid config")
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// Run (the wrapper) must surface the same validation errors.
func TestRunValidatesConfig(t *testing.T) {
	w := wl(batch(1, 32, 10, 0))
	if _, err := Run(w, Config{M: 320, Unit: 33, Scheduler: sched.FCFS{}}); err == nil {
		t.Error("Run accepted a unit that does not divide the machine")
	}
}

// ---- lifecycle -----------------------------------------------------------

func sessionWorkload(t *testing.T, n int, seed int64) *cwf.Workload {
	t.Helper()
	p := workload.DefaultParams()
	p.N = n
	p.Seed = seed
	p.PE = 0.3
	p.PR = 0.15
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runSession(t *testing.T, s *Session, w *cwf.Workload) *Result {
	t.Helper()
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestStepwiseMatchesRun(t *testing.T) {
	w := sessionWorkload(t, 120, 3)
	cfg := func() Config {
		return Config{M: 320, Unit: 32, Scheduler: core.NewDelayedLOS(5), ProcessECC: true}
	}
	want, err := Run(w, cfg())
	if err != nil {
		t.Fatal(err)
	}

	// One event timestamp at a time.
	s, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		ok, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		steps++
	}
	if !s.Done() {
		t.Error("session not Done after Step drained")
	}
	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stepped run diverged from one-shot run:\n%+v\n%+v", got, want)
	}
	if steps == 0 {
		t.Fatal("no steps taken")
	}

	// Deadline-bounded chunks.
	s2, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Load(w); err != nil {
		t.Fatal(err)
	}
	for {
		next, ok := s2.NextEventTime()
		if !ok {
			break
		}
		if err := s2.RunUntil(next + 5000); err != nil {
			t.Fatal(err)
		}
	}
	got2, err := s2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Errorf("RunUntil-chunked run diverged from one-shot run")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	w := wl(batch(1, 320, 100, 0), batch(2, 320, 100, 0))
	s, err := New(Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 || s.Running() != 1 || s.Waiting() != 1 {
		t.Errorf("at deadline 50: now=%d running=%d waiting=%d, want 0/1/1", s.Now(), s.Running(), s.Waiting())
	}
	// Partial result mid-run: no deadlock error, partial counts.
	r, err := s.Result()
	if err != nil {
		t.Fatalf("mid-run Result: %v", err)
	}
	if r.Summary.Jobs != 0 { // no completions yet
		t.Errorf("mid-run summary reports %d finished jobs, want 0", r.Summary.Jobs)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r, err = s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.Jobs != 2 {
		t.Errorf("final summary reports %d jobs, want 2", r.Summary.Jobs)
	}
}

func TestLoadTwiceRejected(t *testing.T) {
	w := wl(batch(1, 32, 10, 0))
	s, err := New(Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err == nil {
		t.Error("second Load accepted")
	}
}

// ---- online injection ----------------------------------------------------

// Injecting the whole workload before the first step must be exactly
// equivalent to Load: same admission order, same event sequence.
func TestInjectAllMatchesLoad(t *testing.T) {
	w := sessionWorkload(t, 80, 11)
	cfg := func() Config {
		return Config{M: 320, Unit: 32, Scheduler: core.NewDelayedLOS(5), ProcessECC: true}
	}
	want, err := Run(w, cfg())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range w.Jobs {
		if err := s.Inject(j); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range w.Commands {
		if err := s.InjectCommand(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("injected run diverged from loaded run:\n%+v\n%+v", got, want)
	}
	// The input jobs must not have been mutated (injection clones).
	for _, j := range w.Jobs {
		if j.State != 0 || j.StartTime != 0 {
			t.Fatalf("Inject mutated caller's job %v", j)
		}
	}
}

func TestInjectMidRun(t *testing.T) {
	s, err := New(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(wl(batch(1, 320, 100, 0))); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(0); err != nil { // job 1 dispatched, runs to t=100
		t.Fatal(err)
	}
	// A job submitted "now" while job 1 occupies the machine.
	if err := s.Inject(batch(2, 160, 50, s.Now())); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.Jobs != 2 {
		t.Fatalf("finished %d jobs, want 2", r.Summary.Jobs)
	}
	// Job 2 had to wait for job 1: mean wait = (0 + 100)/2.
	if r.Summary.MeanWait != 50 {
		t.Errorf("mean wait %g, want 50", r.Summary.MeanWait)
	}
}

func TestInjectValidation(t *testing.T) {
	s, err := New(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(wl(batch(1, 320, 100, 0))); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(batch(1, 32, 10, 5)); err == nil {
		t.Error("duplicate job ID accepted")
	}
	if err := s.Inject(batch(2, 32, 10, s.Now()-1)); err == nil {
		t.Error("arrival in the past accepted")
	}
	if err := s.Inject(batch(3, 999, 10, s.Now())); err == nil {
		t.Error("job larger than the machine accepted")
	}
	if err := s.Inject(ded(4, 32, 10, s.Now(), s.Now()+10)); err == nil {
		t.Error("dedicated job accepted by batch-only scheduler")
	}
	if err := s.InjectCommand(cwf.Command{JobID: 1, Issue: s.Now() - 1, Type: cwf.ExtendTime, Amount: 5}); err == nil {
		t.Error("command issued in the past accepted")
	}
	if err := s.InjectCommand(cwf.Command{JobID: 1, Issue: s.Now(), Type: cwf.ExtendTime, Amount: 0}); err == nil {
		t.Error("zero-amount command accepted")
	}
}

func TestInjectCommandMidRun(t *testing.T) {
	s, err := New(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, ProcessECC: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(wl(batch(1, 320, 100, 0))); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectCommand(cwf.Command{JobID: 1, Issue: 40, Type: cwf.ExtendTime, Amount: 25}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.ECC.Applied != 1 || r.Summary.MeanRun != 125 {
		t.Errorf("ECC applied=%d meanRun=%g, want 1/125", r.ECC.Applied, r.Summary.MeanRun)
	}
}

// Injecting an ID far outside the loaded ID range keeps the pending
// completion of a running job: job 1 still finishes at t=100, and the
// injected job waits for it and runs after.
func TestInjectSparseIDKeepsPendingCompletion(t *testing.T) {
	s, err := New(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(wl(batch(1, 320, 100, 0))); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(0); err != nil { // job 1 running; completion pending
		t.Fatal(err)
	}
	if err := s.Inject(batch(1_000_000, 32, 10, s.Now())); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		until int64
		jobs  int
	}{{99, 0}, {100, 1}} {
		if err := s.RunUntil(step.until); err != nil {
			t.Fatal(err)
		}
		r, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if r.Summary.Jobs != step.jobs {
			t.Errorf("t=%d: finished %d jobs, want %d", step.until, r.Summary.Jobs, step.jobs)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.Jobs != 2 || r.Summary.WindowEnd != 110 || r.Summary.MeanWait != 50 {
		t.Errorf("jobs=%d end=%d meanWait=%g, want 2/110/50", r.Summary.Jobs, r.Summary.WindowEnd, r.Summary.MeanWait)
	}
}

// ---- snapshot / restore --------------------------------------------------

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	w := sessionWorkload(t, 120, 7)
	cfg := func() Config {
		return Config{M: 320, Unit: 32, Scheduler: core.NewDelayedLOS(5), ProcessECC: true, Paranoid: true}
	}
	want, err := Run(w, cfg())
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ { // stop at an arbitrary mid-run boundary
		if ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Serialize through JSON to prove the encoding is lossless.
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	r2, err := New(cfg()) // fresh session, fresh scheduler
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if err := r2.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := r2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored run diverged from uninterrupted run:\n%+v\n%+v", got, want)
	}

	// The captured session is unperturbed and finishes identically too.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	orig, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, want) {
		t.Errorf("snapshotting perturbed the live session")
	}
}

// TestRestoreRejectsInconsistentMetrics hand-edits a snapshot's metrics
// block so its waits series no longer matches the finished-job count.
// Restore must refuse it before committing anything, so the same session
// then takes the unedited snapshot and finishes like the uninterrupted run.
func TestRestoreRejectsInconsistentMetrics(t *testing.T) {
	w := sessionWorkload(t, 120, 7)
	cfg := func() Config { return Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}} }
	want, err := Run(w, cfg())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := *sn
	waits := sn.Metrics.Waits
	if len(waits) == 0 {
		t.Fatal("no job finished before the snapshot; the edit would be a no-op")
	}
	bad.Metrics.Waits = slices.Concat(waits, waits, waits, waits)

	r, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(&bad); !errors.Is(err, metrics.ErrBadSnapshot) {
		t.Fatalf("Restore of an edited metrics block = %v, want ErrBadSnapshot", err)
	}
	if err := r.Restore(sn); err != nil {
		t.Fatalf("Restore after a refused snapshot: %v", err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored run diverged from uninterrupted run:\n%+v\n%+v", got, want)
	}
}

func TestSnapshotSupportsInjectionAfterRestore(t *testing.T) {
	s, err := New(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(wl(batch(1, 320, 100, 0))); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(sn); err != nil {
		t.Fatal(err)
	}
	if err := r.Inject(batch(2, 64, 10, r.Now()+5)); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Jobs != 2 {
		t.Errorf("finished %d jobs, want 2", res.Summary.Jobs)
	}
}

func TestRestoreRejectsMismatches(t *testing.T) {
	s, err := New(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(wl(batch(1, 320, 100, 0))); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func(cfg Config) *Session {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if err := fresh(Config{M: 640, Unit: 32, Scheduler: &sched.EASY{}}).Restore(sn); err == nil {
		t.Error("geometry mismatch accepted")
	}
	if err := fresh(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, ProcessECC: true}).Restore(sn); err == nil {
		t.Error("ECC-mode mismatch accepted")
	}
	bad := *sn
	bad.Version = 99
	if err := fresh(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}}).Restore(&bad); err == nil {
		t.Error("wrong version accepted")
	}
	// Restore on a used session is refused.
	if err := s.Restore(sn); err == nil {
		t.Error("Restore on a running session accepted")
	}
	// Policy swap is allowed: restoring an EASY snapshot under FCFS.
	swapped := fresh(Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}})
	if err := swapped.Restore(sn); err != nil {
		t.Errorf("policy-swap restore rejected: %v", err)
	}
	if err := swapped.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := swapped.Result(); err != nil {
		t.Fatal(err)
	}
}

// Adaptive is the one built-in policy with logical cross-cycle state; its
// estimate must survive the round trip or the restored run diverges.
func TestSnapshotCarriesAdaptiveState(t *testing.T) {
	w := sessionWorkload(t, 150, 19)
	cfg := func() Config {
		return Config{M: 320, Unit: 32, Scheduler: core.NewAdaptive(5)}
	}
	want, err := Run(w, cfg())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sn.SchedState) == 0 {
		t.Fatal("Adaptive snapshot carries no policy state")
	}
	r, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(sn); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Adaptive restored run diverged from uninterrupted run")
	}
}
