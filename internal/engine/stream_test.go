package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/fault"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

// Load feeds arrivals, ECC commands and fault events to the kernel as a
// static source rather than as heap events. These tests pin that the
// change is invisible from outside: snapshots of sessions whose Load
// events are still pending encode to the same bytes as when every one of
// them was a heap event, restore to the same run, and Load itself does no
// per-event allocation.

// streamFaults is a daly-checkpointed sampled fault model dense enough
// that every Load-time stream (arrivals, commands, faults) is non-empty.
func streamFaults() *FaultConfig {
	return &FaultConfig{MTBF: 40000, MTTR: 2000, Seed: 11,
		Retry: fault.RetryPolicy{Backoff: 30}, Checkpoint: fault.CheckpointDaly, CheckpointCost: 30}
}

func streamConfig() Config {
	return Config{M: 320, Unit: 32, Scheduler: sched.NewAutoResize(&sched.EASY{}),
		ProcessECC: true, Malleable: true, ResizeOverhead: 20, Paranoid: true, Faults: streamFaults()}
}

func streamWorkload(t testing.TB, n int, seed int64) *cwf.Workload {
	t.Helper()
	p := workload.DefaultParams()
	p.Seed, p.N, p.TargetLoad, p.PM, p.PE = seed, n, 0.9, 1.0, 0.3
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// pinSnapshot encodes sn and compares its sha256 with want.
func pinSnapshot(t *testing.T, sn *Snapshot, want string) {
	t.Helper()
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("snapshot encoding sha256 = %s, pinned %s", got, want)
	}
}

// resumeSnapshot resumes sn under the stream tests' scheduler.
func resumeSnapshot(t *testing.T, sn *Snapshot) *Result {
	t.Helper()
	return resumeSnapshotWith(t, sn, sched.NewAutoResize(&sched.EASY{}))
}

// resumeSnapshotWith round-trips sn through its JSON encoding into a fresh
// session built from sn.Config with scheduler sc, runs it to completion
// and returns the result.
func resumeSnapshotWith(t *testing.T, sn *Snapshot, sc sched.Scheduler) *Result {
	t.Helper()
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
	cfg.Scheduler = sc
	cfg.Paranoid = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(dec); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// loadSnapshotPinSHA256 is the sha256 of TestSnapshotAfterLoadPinned's
// snapshot, recorded when Load still scheduled every event on the heap.
const loadSnapshotPinSHA256 = "981eb451b41cd5ce68a906f5099b38cd0967394f3de60ab122fa5de0e9acc526"

// TestSnapshotAfterLoadPinned snapshots a session right after Load, with
// every arrival, ECC command and fault event still pending, and requires
// the pinned encoding and a restore that runs to the uninterrupted result.
func TestSnapshotAfterLoadPinned(t *testing.T) {
	w := streamWorkload(t, 120, 5)
	want, err := Run(w, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(streamConfig())
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
	kinds := map[string]int{}
	for _, ev := range sn.Events {
		kinds[ev.Kind]++
	}
	if kinds[evArrive] != len(w.Jobs) || kinds[evCommand] != len(w.Commands) ||
		kinds[evFail] == 0 || kinds[evRepair] == 0 || len(w.Commands) == 0 {
		t.Fatalf("scenario drifted: pending %v for %d jobs and %d commands", kinds, len(w.Jobs), len(w.Commands))
	}
	pinSnapshot(t, sn, loadSnapshotPinSHA256)
	if got := resumeSnapshot(t, sn); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// withdrawSnapshotPinSHA256 is the sha256 of TestSnapshotAfterWithdrawPinned's
// snapshot, recorded when Load still scheduled every event on the heap.
const withdrawSnapshotPinSHA256 = "dcc58b77e9c1b9616aa1b960ca4b42dc8233694134b08238200a8915296a4e73"

// TestSnapshotAfterWithdrawPinned withdraws a queued job and absorbs it
// back while Load arrivals are still pending. Withdraw shifts the
// session's job list under those pending arrivals, so the snapshot must
// index them by job, not by Load position.
func TestSnapshotAfterWithdrawPinned(t *testing.T) {
	w := streamWorkload(t, 120, 5)
	s, err := New(streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	// Step until some queued, movable job sits ahead of pending arrivals.
	var moved int
	for moved == 0 {
		if ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("no stealable job before the run drained: ok=%v err=%v", ok, err)
		}
		for _, j := range s.WaitingBatch() {
			if !j.Rigid {
				moved = j.ID
				break
			}
		}
	}
	victim := s.FindWaiting(moved)
	if err := s.Withdraw(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.AbsorbAt(victim, s.Now()+1); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	arrivals := 0
	for _, ev := range sn.Events {
		if ev.Kind == evArrive {
			arrivals++
		}
	}
	if arrivals < 10 {
		t.Fatalf("scenario drifted: only %d arrivals pending after the withdraw", arrivals)
	}
	pinSnapshot(t, sn, withdrawSnapshotPinSHA256)

	got := resumeSnapshot(t, sn)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// wakeSnapshotPinSHA256 is the sha256 of TestSnapshotPendingWakePinned's
// snapshot, recorded when a wake was still a closure event rather than a
// shared handler with a nil argument.
const wakeSnapshotPinSHA256 = "b924f475384a26265ee8b705967e4ef7390461ae309a26b4bd63b7c4cf3397f7"

// TestSnapshotPendingWakePinned stops a heterogeneous session at the first
// instant boundary where a dedicated job's wake event is pending, and
// requires the pinned encoding, a "wake" record in it, and a restore that
// runs to the uninterrupted result.
func TestSnapshotPendingWakePinned(t *testing.T) {
	p := workload.DefaultParams()
	p.Seed, p.N, p.TargetLoad, p.PD = 4, 80, 0.9, 0.3
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{M: 320, Unit: 32, Scheduler: &sched.EASY{Ded: true}, ProcessECC: true, Paranoid: true}
	want, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler = &sched.EASY{Ded: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	var sn *Snapshot
	for wakes := 0; wakes == 0; {
		if ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("no wake pending before the run drained: ok=%v err=%v", ok, err)
		}
		if sn, err = s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range sn.Events {
			if ev.Kind == evWake {
				wakes++
			}
		}
	}
	pinSnapshot(t, sn, wakeSnapshotPinSHA256)
	if got := resumeSnapshotWith(t, sn, &sched.EASY{Ded: true}); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// loadAllocs counts the allocations of New plus Load for w, with or
// without sampled faults.
func loadAllocs(t *testing.T, w *cwf.Workload, faults bool) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		cfg := Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, ProcessECC: true, Prevalidated: true}
		if faults {
			cfg.Faults = streamFaults()
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(w); err != nil {
			t.Fatal(err)
		}
	})
}

// maxLoadAllocGrowth bounds how many more allocations New+Load may make
// for a 2000-job workload than for a 500-job one. Load's fixed cost is a
// few dozen allocations (clone and command slices, the collector, the
// static source, the sampled trace's slices); quadrupling the workload may
// add only a few doublings of the slices that grow by append (the sampled
// trace). One kernel allocation per event would add thousands, and one per
// 128-event arena chunk a dozen.
const maxLoadAllocGrowth = 8

// TestLoadAllocsTripwire keeps Load's allocation count independent of the
// workload's size, with and without faults, so per-event kernel
// allocations cannot come back unnoticed. It counts allocations, not time,
// so it holds on any host.
func TestLoadAllocsTripwire(t *testing.T) {
	small, large := streamWorkload(t, 500, 3), streamWorkload(t, 2000, 3)
	for _, faults := range []bool{false, true} {
		a, b := loadAllocs(t, small, faults), loadAllocs(t, large, faults)
		if b-a > maxLoadAllocGrowth {
			t.Errorf("faults=%v: New+Load makes %v allocations at 500 jobs but %v at 2000; growth above %d means a per-event allocation",
				faults, a, b, maxLoadAllocGrowth)
		}
	}
}
