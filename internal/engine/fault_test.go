package engine

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/sched"
	"elastisched/internal/trace"
	"elastisched/internal/workload"
)

// ftrace builds a scripted trace from (time, kind, group) triples.
func ftrace(evs ...fault.Event) *fault.Trace {
	return &fault.Trace{Events: evs}
}

func fail(t int64, groups ...int) fault.Event {
	return fault.Event{Time: t, Kind: fault.Fail, Groups: groups}
}

func repair(t int64, groups ...int) fault.Event {
	return fault.Event{Time: t, Kind: fault.Repair, Groups: groups}
}

func TestFailureKillsAndRequeuesAtHead(t *testing.T) {
	// A full-machine job is killed at t=50; the failed group heals at t=60.
	// Under the default policy (requeue, full restart) the job restarts at
	// 60 — at the head of the queue, ahead of a job that arrived earlier
	// than its resubmission.
	w := wl(batch(1, 320, 100, 0), batch(2, 320, 10, 5))
	rec := trace.NewRecorder(320, 32)
	r := mustRun(t, w, Config{Scheduler: sched.FCFS{}, Observer: rec,
		Faults: &FaultConfig{Trace: ftrace(fail(50, 0), repair(60, 0))}})

	s := r.Summary
	if s.KilledJobs != 1 || s.RetriedJobs != 1 || s.DroppedJobs != 0 {
		t.Errorf("killed/retried/dropped = %d/%d/%d, want 1/1/0", s.KilledJobs, s.RetriedJobs, s.DroppedJobs)
	}
	if s.Jobs != 2 {
		t.Errorf("finished jobs = %d, want 2", s.Jobs)
	}
	if s.LostWorkSeconds != 50*320 {
		t.Errorf("lost work = %g, want %d", s.LostWorkSeconds, 50*320)
	}
	if s.DownProcSeconds != 10*32 {
		t.Errorf("down proc-seconds = %g, want %d", s.DownProcSeconds, 10*32)
	}

	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	// Attempt 1 of job 1: killed exactly at the failure instant.
	if sp := spans[0]; sp.JobID != 1 || !sp.Killed || sp.Start != 0 || sp.End != 50 {
		t.Errorf("first span = %+v, want job 1 killed [0,50)", sp)
	}
	// The retry runs before job 2 despite job 2's earlier arrival: the
	// resubmission went to the head of the queue.
	if sp := spans[1]; sp.JobID != 1 || sp.Killed || sp.Start != 60 || sp.End != 160 {
		t.Errorf("second span = %+v, want job 1 [60,160)", sp)
	}
	if sp := spans[2]; sp.JobID != 2 || sp.Start != 160 {
		t.Errorf("third span = %+v, want job 2 starting at 160", sp)
	}
}

func TestDropPolicyRemovesVictim(t *testing.T) {
	w := wl(batch(1, 320, 100, 0))
	r := mustRun(t, w, Config{Scheduler: sched.FCFS{},
		Faults: &FaultConfig{Trace: ftrace(fail(50, 3), repair(60, 3)),
			Retry: fault.RetryPolicy{Mode: fault.Drop}}})
	s := r.Summary
	if s.KilledJobs != 1 || s.RetriedJobs != 0 || s.DroppedJobs != 1 {
		t.Errorf("killed/retried/dropped = %d/%d/%d, want 1/0/1", s.KilledJobs, s.RetriedJobs, s.DroppedJobs)
	}
	if s.Jobs != 0 {
		t.Errorf("finished jobs = %d, want 0", s.Jobs)
	}
}

func TestRetryBudgetExhaustionDrops(t *testing.T) {
	// Two failures; one retry allowed. The second kill exhausts the budget.
	w := wl(batch(1, 320, 100, 0))
	r := mustRun(t, w, Config{Scheduler: sched.FCFS{},
		Faults: &FaultConfig{Trace: ftrace(fail(10, 0), repair(20, 0), fail(50, 0), repair(55, 0)),
			Retry: fault.RetryPolicy{MaxRetries: 1}}})
	s := r.Summary
	if s.KilledJobs != 2 || s.RetriedJobs != 1 || s.DroppedJobs != 1 {
		t.Errorf("killed/retried/dropped = %d/%d/%d, want 2/1/1", s.KilledJobs, s.RetriedJobs, s.DroppedJobs)
	}
	if s.Jobs != 0 {
		t.Errorf("finished jobs = %d, want 0", s.Jobs)
	}
}

func TestRemainingRuntimeRestart(t *testing.T) {
	// A 32-proc job killed at t=40 of its 100s run restarts immediately on
	// a healthy group carrying only the 60 unfinished seconds.
	w := wl(batch(1, 32, 100, 0))
	rec := trace.NewRecorder(320, 32)
	mustRun(t, w, Config{Scheduler: sched.FCFS{}, Observer: rec,
		Faults: &FaultConfig{Trace: ftrace(fail(40, 0), repair(500, 0)),
			Retry: fault.RetryPolicy{Restart: fault.RemainingRuntime}}})
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	if sp := spans[0]; !sp.Killed || sp.End != 40 {
		t.Errorf("first span = %+v, want killed at 40", sp)
	}
	if sp := spans[1]; sp.Killed || sp.Start != 40 || sp.End != 100 {
		t.Errorf("second span = %+v, want [40,100)", sp)
	}
}

func TestRetryBackoffDelaysResubmission(t *testing.T) {
	w := wl(batch(1, 32, 100, 0))
	rec := trace.NewRecorder(320, 32)
	mustRun(t, w, Config{Scheduler: sched.FCFS{}, Observer: rec,
		Faults: &FaultConfig{Trace: ftrace(fail(40, 0), repair(500, 0)),
			Retry: fault.RetryPolicy{Backoff: 25}}})
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	if sp := spans[1]; sp.Start != 65 || sp.End != 165 {
		t.Errorf("retry span = %+v, want [65,165) (kill 40 + backoff 25, full restart)", sp)
	}
}

func TestDedicatedVictimAlwaysDropped(t *testing.T) {
	// The dedicated job's rigid start has passed by the time it is killed;
	// requeue mode does not apply to it.
	w := wl(ded(1, 320, 100, 0, 0))
	r := mustRun(t, w, Config{Scheduler: &sched.EASY{Ded: true},
		Faults: &FaultConfig{Trace: ftrace(fail(50, 0), repair(60, 0))}})
	s := r.Summary
	if s.KilledJobs != 1 || s.RetriedJobs != 0 || s.DroppedJobs != 1 {
		t.Errorf("killed/retried/dropped = %d/%d/%d, want 1/0/1", s.KilledJobs, s.RetriedJobs, s.DroppedJobs)
	}
}

func TestFailureOfIdleGroupsKillsNothing(t *testing.T) {
	// A 32-proc job holds one group; failing three other groups shrinks
	// capacity but kills nothing and changes no job outcome.
	w := wl(batch(1, 32, 100, 0))
	r := mustRun(t, w, Config{Scheduler: sched.FCFS{},
		Faults: &FaultConfig{Trace: ftrace(fail(10, 5, 6, 7), repair(30, 5, 6, 7))}})
	s := r.Summary
	if s.KilledJobs != 0 || s.Jobs != 1 || s.MeanRun != 100 {
		t.Errorf("summary = %+v, want no kills and one clean 100s job", s)
	}
	if s.DownProcSeconds != 20*96 {
		t.Errorf("down proc-seconds = %g, want %d", s.DownProcSeconds, 20*96)
	}
}

func TestGeneratedFaultsAreDeterministic(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 150
	p.TargetLoad = 0.8
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scheduler: &sched.EASY{},
		Faults: &FaultConfig{MTBF: 40000, MTTR: 2000, Seed: 7}}
	r1 := mustRun(t, w, cfg)
	cfg.Scheduler = &sched.EASY{}
	cfg.Faults = &FaultConfig{MTBF: 40000, MTTR: 2000, Seed: 7}
	r2 := mustRun(t, w, cfg)
	if r1.Summary != r2.Summary || r1.Events != r2.Events {
		t.Fatal("fault-injected simulation not deterministic")
	}
	if r1.Summary.DownProcSeconds == 0 {
		t.Fatal("MTBF 40000 over this span produced no downtime; pick parameters that fault")
	}
}

func TestFaultConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		fc   *FaultConfig
		mut  func(*Config) // optional: non-fault knobs of the same run
		want error         // nil means "any error"
	}{
		{"zero MTBF", &FaultConfig{}, nil, fault.ErrNonPositiveMTBF},
		{"negative MTBF", &FaultConfig{MTBF: -3}, nil, fault.ErrNonPositiveMTBF},
		{"NaN MTBF", &FaultConfig{MTBF: math.NaN()}, nil, fault.ErrNonPositiveMTBF},
		{"negative MTTR", &FaultConfig{MTBF: 100, MTTR: -1}, nil, fault.ErrNegativeMTTR},
		{"NaN MTTR", &FaultConfig{MTBF: 100, MTTR: math.NaN()}, nil, fault.ErrNegativeMTTR},
		{"negative retries", &FaultConfig{MTBF: 100, Retry: fault.RetryPolicy{MaxRetries: -1}}, nil, fault.ErrNegativeRetries},
		{"negative backoff", &FaultConfig{MTBF: 100, Retry: fault.RetryPolicy{Backoff: -1}}, nil, fault.ErrNegativeBackoff},
		{"unknown retry mode", &FaultConfig{MTBF: 100, Retry: fault.RetryPolicy{Mode: 9}}, nil, fault.ErrUnknownRetryMode},
		{"unknown restart", &FaultConfig{MTBF: 100, Retry: fault.RetryPolicy{Restart: 9}}, nil, fault.ErrUnknownRestart},
		{"trace plus MTBF", &FaultConfig{Trace: ftrace(fail(1, 0), repair(2, 0)), MTBF: 100}, nil, nil},
		{"trace group out of range", &FaultConfig{Trace: ftrace(fail(1, 10))}, nil, fault.ErrGroupOutOfRange},
		{"negative checkpoint cost", &FaultConfig{MTBF: 40000, Checkpoint: fault.CheckpointPeriodic,
			CheckpointInterval: 600, CheckpointCost: -1}, nil, fault.ErrNegativeCheckpointCost},
		{"interval without periodic", &FaultConfig{MTBF: 40000, CheckpointInterval: 600}, nil, fault.ErrIntervalWithoutPeriodic},
		{"periodic without interval", &FaultConfig{MTBF: 40000, Checkpoint: fault.CheckpointPeriodic}, nil, fault.ErrNonPositiveInterval},
		{"daly without cost", &FaultConfig{MTBF: 40000, Checkpoint: fault.CheckpointDaly}, nil, fault.ErrDalyNeedsCost},
		{"on-resize without malleable", &FaultConfig{MTBF: 40000, Checkpoint: fault.CheckpointOnResize, CheckpointCost: 30},
			nil, ErrOnResizeNeedsMalleable},
		{"negative resize overhead", nil, func(c *Config) { c.Malleable, c.ResizeOverhead = true, -3 }, ErrNegativeResizeOverhead},
		{"migrate without contiguous", nil, func(c *Config) { c.Migrate = true }, ErrMigrateNeedsContiguous},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}, Faults: tc.fc}
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			_, err := New(cfg)
			if err == nil {
				t.Fatal("config accepted, want error")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is %v", err, tc.want)
			}
			cfg.Scheduler = nil
			if verr := cfg.Validate(); verr == nil || verr.Error() != err.Error() {
				t.Fatalf("Validate() = %v, New = %v; want the same error", verr, err)
			}
		})
	}

	for _, fc := range []*FaultConfig{
		{MTBF: 100, MTTR: 50, Seed: 1},
		{MTBF: 40000, Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 600, CheckpointCost: 30},
		{MTBF: 40000, Checkpoint: fault.CheckpointDaly, CheckpointCost: 30},
	} {
		if _, err := New(Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}, Faults: fc}); err != nil {
			t.Fatalf("valid fault config %+v rejected: %v", *fc, err)
		}
	}
	if _, err := New(Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}, Malleable: true,
		Faults: &FaultConfig{MTBF: 40000, Checkpoint: fault.CheckpointOnResize, CheckpointCost: 30}}); err != nil {
		t.Fatalf("on-resize checkpointing with Malleable rejected: %v", err)
	}
	if _, err := New(Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}, Contiguous: true,
		Faults: &FaultConfig{MTBF: 100}}); err != nil {
		t.Fatalf("contiguous allocation with faults rejected: %v", err)
	}
}

func TestSnapshotRoundTripMidFault(t *testing.T) {
	// Snapshot while a group is down and a killed job waits for capacity;
	// the restored session must finish with a deep-equal result.
	w := wl(batch(1, 320, 100, 0), batch(2, 160, 50, 5), batch(3, 160, 30, 6))
	cfg := Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, Paranoid: true,
		Faults: &FaultConfig{Trace: ftrace(fail(50, 0, 1), repair(90, 0, 1)),
			Retry: fault.RetryPolicy{Restart: fault.RemainingRuntime, Backoff: 3}}}

	run := func() (*Session, *Result) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
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
		return s, r
	}
	_, want := run()

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	// Advance past the failure instant but not to the repair.
	if err := s.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sn.Machine.Health) == 0 {
		t.Fatal("mid-fault snapshot carries no machine health table")
	}

	// Round-trip the encoding too.
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sn2, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Scheduler = &sched.EASY{}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(sn2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run result differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSnapshotRoundTripMidRetryBackoff snapshots while a killed job's
// backoff resubmission is still pending in the event queue — the retry
// exists only as a future arrival — and requires the restored run to
// reproduce the failure accounting exactly. The checkpointed variant
// additionally carries the victim's checkpoint progress through the wire.
func TestSnapshotRoundTripMidRetryBackoff(t *testing.T) {
	cases := []struct {
		name string
		fc   FaultConfig
	}{
		{"plain", FaultConfig{
			Trace: ftrace(fail(50, 0, 1), repair(60, 0, 1)),
			Retry: fault.RetryPolicy{Restart: fault.RemainingRuntime, Backoff: 100},
		}},
		{"checkpointed", FaultConfig{
			Trace:      ftrace(fail(50, 0, 1), repair(60, 0, 1)),
			Retry:      fault.RetryPolicy{Backoff: 100},
			Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 20, CheckpointCost: 3,
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := wl(batch(1, 320, 100, 0), batch(2, 160, 40, 5))
			fresh := func() *Session {
				fc := tc.fc
				s, err := New(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, Paranoid: true, Faults: &fc})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			mk := func() *Session {
				s := fresh()
				if err := s.Load(w); err != nil {
					t.Fatal(err)
				}
				return s
			}
			full := mk()
			if err := full.Run(); err != nil {
				t.Fatal(err)
			}
			want, err := full.Result()
			if err != nil {
				t.Fatal(err)
			}
			if want.Summary.KilledJobs == 0 || want.Summary.RetriedJobs == 0 {
				t.Fatalf("scenario kills nothing: %+v", want.Summary)
			}

			// Kill at t=50, backoff 100: at t=100 the resubmission is still
			// a pending future arrival.
			live := mk()
			if err := live.RunUntil(100); err != nil {
				t.Fatal(err)
			}
			sn, err := live.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sn.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			sn2, err := DecodeSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			resumed := fresh()
			if err := resumed.Restore(sn2); err != nil {
				t.Fatal(err)
			}
			if err := resumed.Run(); err != nil {
				t.Fatal(err)
			}
			got, err := resumed.Result()
			if err != nil {
				t.Fatal(err)
			}
			if got.Summary.KilledJobs != want.Summary.KilledJobs ||
				got.Summary.RetriedJobs != want.Summary.RetriedJobs ||
				got.Summary.DroppedJobs != want.Summary.DroppedJobs {
				t.Errorf("killed/retried/dropped = %d/%d/%d, want %d/%d/%d",
					got.Summary.KilledJobs, got.Summary.RetriedJobs, got.Summary.DroppedJobs,
					want.Summary.KilledJobs, want.Summary.RetriedJobs, want.Summary.DroppedJobs)
			}
			if got.Summary.LostWorkSeconds != want.Summary.LostWorkSeconds {
				t.Errorf("lost work = %g, want %g", got.Summary.LostWorkSeconds, want.Summary.LostWorkSeconds)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored mid-backoff run diverged:\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

func TestRestoreRejectsFaultMismatch(t *testing.T) {
	w := wl(batch(1, 320, 100, 0))
	cfg := Config{M: 320, Unit: 32, Scheduler: sched.FCFS{},
		Faults: &FaultConfig{Trace: ftrace(fail(50, 0), repair(60, 0))}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Fault snapshot into a fault-free config.
	plain, err := New(Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Restore(sn); err == nil {
		t.Fatal("fault snapshot restored into fault-free session")
	}

	// Same fault subsystem, different retry policy.
	cfg2 := cfg
	cfg2.Scheduler = sched.FCFS{}
	cfg2.Faults = &FaultConfig{Trace: cfg.Faults.Trace, Retry: fault.RetryPolicy{Mode: fault.Drop}}
	other, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(sn); err == nil {
		t.Fatal("snapshot restored under a different retry policy")
	}
}

// TestRestoreMismatchTyped changes each snapshot setting once and expects
// Restore to refuse with ErrSnapshotMismatch, while the snapshot's own
// Config (with any scheduler) still restores.
func TestRestoreMismatchTyped(t *testing.T) {
	periodic := Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, Contiguous: true,
		ProcessECC: true, MaxECCPerJob: 2, Malleable: true, ResizeOverhead: 20,
		Faults: &FaultConfig{Trace: ftrace(fail(50, 0), repair(60, 0)), Retry: fault.RetryPolicy{Backoff: 30},
			Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 500, CheckpointCost: 30}}
	daly := periodic
	daly.Faults = &FaultConfig{MTBF: 40000, MTTR: 2000, Seed: 11, Retry: fault.RetryPolicy{Backoff: 30},
		Checkpoint: fault.CheckpointDaly, CheckpointCost: 30}
	snap := func(cfg Config) *Snapshot {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(wl(batch(1, 64, 100, 0), batch(2, 128, 300, 10))); err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntil(20); err != nil {
			t.Fatal(err)
		}
		sn, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return sn
	}
	restore := func(t *testing.T, cfg Config, sn *Snapshot) error {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Restore(sn)
	}

	cases := []struct {
		name   string
		base   Config
		change func(c *Config, f *FaultConfig)
	}{
		{"M", periodic, func(c *Config, _ *FaultConfig) { c.M = 640 }},
		{"Unit", periodic, func(c *Config, _ *FaultConfig) { c.Unit = 64 }},
		{"Contiguous", periodic, func(c *Config, _ *FaultConfig) { c.Contiguous = false }},
		{"Migrate", periodic, func(c *Config, _ *FaultConfig) { c.Migrate = true }},
		{"ProcessECC", periodic, func(c *Config, _ *FaultConfig) { c.ProcessECC = false }},
		{"MaxECCPerJob", periodic, func(c *Config, _ *FaultConfig) { c.MaxECCPerJob = 3 }},
		{"faults off", periodic, func(c *Config, _ *FaultConfig) { c.Faults = nil }},
		{"Retry", periodic, func(_ *Config, f *FaultConfig) { f.Retry.MaxRetries = 5 }},
		{"Checkpoint", periodic, func(_ *Config, f *FaultConfig) {
			f.Checkpoint, f.CheckpointInterval = fault.CheckpointOnResize, 0
		}},
		{"CheckpointInterval", periodic, func(_ *Config, f *FaultConfig) { f.CheckpointInterval = 600 }},
		{"CheckpointCost", periodic, func(_ *Config, f *FaultConfig) { f.CheckpointCost = 40 }},
		// Only the captured MTBF differs: 40000.5 resolves to the same daly
		// interval as 40000 (checked below).
		{"CheckpointMTBF", daly, func(_ *Config, f *FaultConfig) { f.MTBF = 40000.5 }},
		{"Malleable", periodic, func(c *Config, _ *FaultConfig) { c.Malleable = false }},
		{"ResizeOverhead", periodic, func(c *Config, _ *FaultConfig) { c.ResizeOverhead = 30 }},
	}
	if fault.DalyInterval(40000.5, 30) != fault.DalyInterval(40000, 30) {
		t.Fatal("the CheckpointMTBF case moves the resolved interval too")
	}
	snaps := map[*FaultConfig]*Snapshot{periodic.Faults: snap(periodic), daly.Faults: snap(daly)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sn := snaps[tc.base.Faults]
			cfg := tc.base
			f := *cfg.Faults
			cfg.Faults = &f
			tc.change(&cfg, &f)
			if err := restore(t, cfg, sn); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("Restore = %v, want ErrSnapshotMismatch", err)
			}
		})
	}
	for base, sn := range snaps {
		if err := restore(t, Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, Contiguous: true,
			ProcessECC: true, MaxECCPerJob: 2, Malleable: true, ResizeOverhead: 20, Faults: base}, sn); err != nil {
			t.Errorf("%v: restore under the capturing config: %v", base.Checkpoint, err)
		}
		cfg, err := sn.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scheduler = sched.FCFS{}
		if err := restore(t, cfg, sn); err != nil {
			t.Errorf("%v: restore under the snapshot's own Config: %v", base.Checkpoint, err)
		}
	}
}

func TestKilledJobStateAndRetryCount(t *testing.T) {
	// Direct session access: verify the victim's bookkeeping fields.
	w := wl(batch(1, 320, 100, 0))
	cfg := Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}, Paranoid: true,
		Faults: &FaultConfig{Trace: ftrace(fail(50, 0), repair(60, 0))}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(55); err != nil {
		t.Fatal(err)
	}
	queued := s.batch.Jobs()
	if len(queued) != 1 {
		t.Fatalf("batch queue holds %d jobs mid-outage, want the requeued victim", len(queued))
	}
	victim := queued[0]
	if victim.Retries != 1 || !victim.Rigid || victim.State != job.Waiting || victim.Arrival != 50 {
		t.Fatalf("requeued victim = %+v, want retries=1 rigid waiting arrival=50", victim)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
	if victim.State != job.Finished {
		t.Fatalf("victim state = %v after drain, want finished", victim.State)
	}
}

// TestCheckpointResumeFromSnapshotConfig resumes the periodic and on-resize
// checkpoint policies from a snapshot alone: the restoring config comes
// from Snapshot.Config, not from the caller, and the resumed run must
// finish with a result identical to the uninterrupted one.
func TestCheckpointResumeFromSnapshotConfig(t *testing.T) {
	for _, tc := range []struct {
		name      string
		malleable bool
		fc        FaultConfig
		scheduler func() sched.Scheduler
	}{
		{"periodic", false, FaultConfig{MTBF: 40000, MTTR: 2000, Seed: 7,
			Retry: fault.RetryPolicy{Backoff: 30}, Checkpoint: fault.CheckpointPeriodic,
			CheckpointInterval: 600, CheckpointCost: 30},
			func() sched.Scheduler { return &sched.EASY{} }},
		{"on-resize", true, FaultConfig{MTBF: 40000, MTTR: 2000, Seed: 7,
			Checkpoint: fault.CheckpointOnResize, CheckpointCost: 30},
			func() sched.Scheduler { return sched.NewAutoResize(&sched.EASY{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := workload.DefaultParams()
			p.Seed, p.N, p.TargetLoad, p.PM = 3, 150, 0.9, 1.0
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			mk := func() *Session {
				fc := tc.fc
				s, err := New(Config{M: 320, Unit: 32, Scheduler: tc.scheduler(), Paranoid: true,
					Malleable: tc.malleable, Faults: &fc})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Load(w); err != nil {
					t.Fatal(err)
				}
				return s
			}
			full := mk()
			if err := full.Run(); err != nil {
				t.Fatal(err)
			}
			want, err := full.Result()
			if err != nil {
				t.Fatal(err)
			}

			live := mk()
			if err := live.RunUntil(w.Jobs[len(w.Jobs)/2].Arrival); err != nil {
				t.Fatal(err)
			}
			sn, err := live.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if sn.Metrics.Checkpoints == 0 || sn.Metrics.Checkpoints == want.Summary.CheckpointsTaken {
				t.Fatalf("checkpoints before/over the snapshot = %d/%d; the round trip would not cover the policy",
					sn.Metrics.Checkpoints, want.Summary.CheckpointsTaken)
			}
			var buf bytes.Buffer
			if err := sn.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := dec.Config()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scheduler = tc.scheduler()
			cfg.Paranoid = true
			resumed, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(dec); err != nil {
				t.Fatal(err)
			}
			if err := resumed.Run(); err != nil {
				t.Fatal(err)
			}
			got, err := resumed.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed run diverged:\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

// snapshotPinSHA256 is the sha256 of TestSnapshotEncodingPinned's encoded
// snapshot. A change here is a change to the snapshot wire format (or to
// the schedule it captures): bump SnapshotVersion if the format moved.
const snapshotPinSHA256 = "a76d0d5843d506f33a7e69a614f3be2db7789dcd9baa3603cb9f559b570b8bc1"

// TestSnapshotEncodingPinned pins the snapshot wire format byte for byte:
// one fixed malleable session under faults with daly checkpoints, stopped
// mid-run, must encode to the recorded digest. The scenario must actually
// exercise kills, checkpoints and resizes before the stop, so every
// collector series and fault/checkpoint/resize field reaches the encoding.
func TestSnapshotEncodingPinned(t *testing.T) {
	p := workload.DefaultParams()
	p.Seed, p.N, p.TargetLoad, p.PM = 5, 120, 0.9, 1.0
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{M: 320, Unit: 32, Scheduler: sched.NewAutoResize(&sched.EASY{}),
		ProcessECC: true, Malleable: true, ResizeOverhead: 20,
		Faults: &FaultConfig{MTBF: 40000, MTTR: 2000, Seed: 11,
			Retry: fault.RetryPolicy{Backoff: 30}, Checkpoint: fault.CheckpointDaly, CheckpointCost: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(w.Jobs[2*len(w.Jobs)/3].Arrival); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m := sn.Metrics
	if m.Killed == 0 || m.Checkpoints == 0 || m.SchedResizes == 0 || len(m.PerJob) == 0 {
		t.Fatalf("scenario drifted: kills %d, checkpoints %d, resizes %d, completions %d; the pin would not cover them",
			m.Killed, m.Checkpoints, m.SchedResizes, len(m.PerJob))
	}
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != snapshotPinSHA256 {
		t.Fatalf("snapshot encoding sha256 = %s, pinned %s", got, snapshotPinSHA256)
	}
}
