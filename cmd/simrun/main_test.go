package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	es "elastisched"
	"elastisched/internal/dispatch"
	"elastisched/internal/fault"
)

// TestCheckpointResumeMatchesUninterrupted is the CLI-level round trip:
// run capped at a mid-trace time with a checkpoint file, resume from that
// file, and the combined run's result must deep-equal the uninterrupted
// simulation.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	var specs []es.JobSpec
	for i := 0; i < 40; i++ {
		specs = append(specs, es.JobSpec{
			ID: i + 1, Size: 32 * (1 + i%6), Duration: int64(600 + 137*i),
			Arrival: int64(200 * i), RequestedStart: -1,
		})
	}
	w, err := es.BuildWorkload(specs, []es.CommandSpec{
		{JobID: 10, Issue: 2100, Type: "ET", Amount: 900},
		{JobID: 30, Issue: 6200, Type: "RT", Amount: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := es.Options{M: 320, Unit: 32}
	want, err := es.Simulate(w, "Delayed-LOS-E", opt)
	if err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(t.TempDir(), "mid.snap")
	partial, err := runCapped(w, "Delayed-LOS-E", opt, 3500, snap)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Summary.Jobs >= want.Summary.Jobs {
		t.Fatalf("cap at t=3500 did not stop early: %d of %d jobs done", partial.Summary.Jobs, want.Summary.Jobs)
	}

	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sess, err := es.ResumeSession(f, es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run diverged from uninterrupted run:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// sweepWorkload builds a small deterministic workload for sweep tests.
func sweepWorkload(t *testing.T) *es.Workload {
	t.Helper()
	var specs []es.JobSpec
	for i := 0; i < 30; i++ {
		specs = append(specs, es.JobSpec{
			ID: i + 1, Size: 32 * (1 + i%5), Duration: int64(500 + 90*i),
			Arrival: int64(150 * i), RequestedStart: -1,
		})
	}
	w, err := es.BuildWorkload(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSweepAbortFlushesPartialResults: when an algorithm mid-sweep fails,
// runSweep must return the error (so main exits non-zero) AND the rows of
// the algorithms that already completed must have been flushed.
func TestSweepAbortFlushesPartialResults(t *testing.T) {
	w := sweepWorkload(t)
	var out bytes.Buffer
	err := runSweep(w, []string{"EASY", "no-such-algorithm", "FCFS"},
		es.Options{M: 320, Unit: 32}, &out, sweepOpts{until: -1})
	if err == nil {
		t.Fatal("sweep with an unknown algorithm reported success")
	}
	if !strings.Contains(err.Error(), "no-such-algorithm") {
		t.Errorf("error does not name the failing algorithm: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "algorithm") || !strings.Contains(got, "EASY") {
		t.Errorf("completed EASY row lost on abort; output:\n%s", got)
	}
	if strings.Contains(got, "FCFS") {
		t.Errorf("sweep continued past the failing algorithm; output:\n%s", got)
	}
}

// TestFaultConfigFlags covers the flag-to-FaultConfig assembly, including
// the typed rejections.
func TestFaultConfigFlags(t *testing.T) {
	if fc, err := faultConfig(0, 0, 1, "", "requeue", "full", 0, 0, "none", 0, 0); err != nil || fc != nil {
		t.Errorf("faults-off config = (%v, %v), want (nil, nil)", fc, err)
	}
	fc, err := faultConfig(50000, 1200, 9, "", "drop", "remaining", 3, 60, "none", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := es.RetryPolicy{Mode: es.Drop, Restart: es.RemainingRuntime, MaxRetries: 3, Backoff: 60}
	if fc.MTBF != 50000 || fc.MTTR != 1200 || fc.Seed != 9 || fc.Retry != want {
		t.Errorf("faultConfig = %+v, want MTBF 50000 MTTR 1200 seed 9 retry %+v", fc, want)
	}
	if _, err := faultConfig(50000, 0, 1, "", "bogus", "full", 0, 0, "none", 0, 0); err == nil {
		t.Error("bad -retry accepted")
	}
	if _, err := faultConfig(50000, 0, 1, "", "requeue", "bogus", 0, 0, "none", 0, 0); err == nil {
		t.Error("bad -restart accepted")
	}
	if _, err := faultConfig(0, 0, 1, filepath.Join(t.TempDir(), "absent"), "requeue", "full", 0, 0, "none", 0, 0); err == nil {
		t.Error("missing -fault-trace file accepted")
	}
	script := filepath.Join(t.TempDir(), "faults.txt")
	if err := os.WriteFile(script, []byte("# outage\n3000 fail 0,1\n3400 repair 0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fc, err = faultConfig(0, 0, 1, script, "requeue", "full", 0, 0, "none", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Trace == nil || len(fc.Trace.Events) != 2 {
		t.Errorf("scripted trace not loaded: %+v", fc)
	}
}

// TestCheckpointConfigFlags covers the -ckpt-* flag assembly and its
// typed rejections, errors.Is-testable.
func TestCheckpointConfigFlags(t *testing.T) {
	// Lawful periodic config rides on the fault config.
	fc, err := faultConfig(50000, 1200, 9, "", "requeue", "remaining", 0, 0, "periodic", 600, 30)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Checkpoint != es.CheckpointPeriodic || fc.CheckpointInterval != 600 || fc.CheckpointCost != 30 {
		t.Errorf("checkpoint knobs not threaded: %+v", fc)
	}
	// Daly derives its interval from the sampling MTBF.
	fc, err = faultConfig(50000, 1200, 9, "", "requeue", "full", 0, 0, "daly", 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Checkpoint != es.CheckpointDaly {
		t.Errorf("daly policy not threaded: %+v", fc)
	}
	if got, want := fc.ResolvedCheckpointInterval(), es.DalyInterval(50000, 30); got != want {
		t.Errorf("resolved daly interval = %d, want %d", got, want)
	}

	if _, err := faultConfig(0, 0, 1, "", "requeue", "full", 0, 0, "periodic", 600, 30); !errors.Is(err, ErrCheckpointNeedsFaults) {
		t.Errorf("checkpoint without faults = %v, want ErrCheckpointNeedsFaults", err)
	}
	if _, err := faultConfig(0, 0, 1, "", "requeue", "full", 0, 0, "none", 0, 30); !errors.Is(err, ErrCheckpointNeedsFaults) {
		t.Errorf("cost without faults = %v, want ErrCheckpointNeedsFaults", err)
	}
	if _, err := faultConfig(50000, 0, 1, "", "requeue", "full", 0, 0, "hourly", 0, 0); !errors.Is(err, fault.ErrUnknownCheckpointPolicy) {
		t.Errorf("bad policy = %v, want ErrUnknownCheckpointPolicy", err)
	}
	if _, err := faultConfig(50000, 0, 1, "", "requeue", "full", 0, 0, "none", 600, 0); !errors.Is(err, fault.ErrIntervalWithoutPeriodic) {
		t.Errorf("interval without periodic = %v, want ErrIntervalWithoutPeriodic", err)
	}
	if _, err := faultConfig(50000, 0, 1, "", "requeue", "full", 0, 0, "periodic", 0, 0); !errors.Is(err, fault.ErrNonPositiveInterval) {
		t.Errorf("periodic without interval = %v, want ErrNonPositiveInterval", err)
	}
	if _, err := faultConfig(50000, 0, 1, "", "requeue", "full", 0, 0, "periodic", 600, -1); !errors.Is(err, fault.ErrNegativeCheckpointCost) {
		t.Errorf("negative cost = %v, want ErrNegativeCheckpointCost", err)
	}

	// A scripted trace carries no sampling rate: daly has no MTBF to
	// derive its interval from and must be rejected up front.
	script := filepath.Join(t.TempDir(), "faults.txt")
	if err := os.WriteFile(script, []byte("3000 fail 0,1\n3400 repair 0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := faultConfig(0, 0, 1, script, "requeue", "full", 0, 0, "daly", 0, 30); !errors.Is(err, fault.ErrDalyNeedsMTBF) {
		t.Errorf("daly on scripted trace = %v, want ErrDalyNeedsMTBF", err)
	}
	// Periodic on a scripted trace is fine: the interval is explicit.
	fc, err = faultConfig(0, 0, 1, script, "requeue", "full", 0, 0, "periodic", 600, 30)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Checkpoint != es.CheckpointPeriodic {
		t.Errorf("scripted periodic not threaded: %+v", fc)
	}
}

// TestFaultSweepReportsFailureColumns runs a fault-injected sweep through
// the CLI path and checks the failure-accounting columns appear.
func TestFaultSweepReportsFailureColumns(t *testing.T) {
	w := sweepWorkload(t)
	script := filepath.Join(t.TempDir(), "faults.txt")
	if err := os.WriteFile(script, []byte("1000 fail 0,1,2,3,4,5,6,7,8,9\n1500 repair 0,1,2,3,4,5,6,7,8,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fc, err := faultConfig(0, 0, 1, script, "requeue", "full", 0, 0, "none", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runSweep(w, []string{"EASY"}, es.Options{M: 320, Unit: 32, Faults: fc}, &out, sweepOpts{until: -1}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "killed") || !strings.Contains(got, "down proc-s") {
		t.Errorf("fault columns missing from header:\n%s", got)
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got:\n%s", got)
	}
	if fields := strings.Fields(lines[1]); fields[len(fields)-1] == "0" {
		t.Errorf("full-machine outage recorded zero down proc-seconds:\n%s", got)
	}
}

// TestFaultCheckpointResume is the fault-injected CLI round trip: cap a
// scripted-outage run mid-outage with a checkpoint, resume from the file,
// and the combined result must deep-equal the uninterrupted run.
func TestFaultCheckpointResume(t *testing.T) {
	w := sweepWorkload(t)
	tr, err := es.ParseFaultTrace(strings.NewReader("2000 fail 0,1\n2600 repair 0,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	opt := es.Options{M: 320, Unit: 32, Faults: &es.FaultConfig{Trace: tr}}
	want, err := es.Simulate(w, "EASY", opt)
	if err != nil {
		t.Fatal(err)
	}
	if want.Summary.KilledJobs == 0 {
		t.Fatal("outage killed nothing; the round trip would not cover the fault path")
	}

	snap := filepath.Join(t.TempDir(), "mid.snap")
	if _, err := runCapped(w, "EASY", opt, 2200, snap); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sess, err := es.ResumeSession(f, es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed fault run diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestDalyCheckpointResume pins the daly round trip through the façade:
// the snapshot stores the resolved base interval plus the MTBF the
// per-job intervals derive from, and ResumeSnapshot must rebuild a
// config that validates (daly rejects an explicit interval) and keeps
// deriving the same span-aware intervals as the uninterrupted run.
func TestDalyCheckpointResume(t *testing.T) {
	w := sweepWorkload(t)
	opt := es.Options{M: 320, Unit: 32, Faults: &es.FaultConfig{
		MTBF: 40000, MTTR: 2000, Seed: 7,
		Checkpoint: es.CheckpointDaly, CheckpointCost: 60,
	}}
	want, err := es.Simulate(w, "EASY", opt)
	if err != nil {
		t.Fatal(err)
	}
	if want.Summary.CheckpointsTaken == 0 {
		t.Fatal("daly run took no checkpoints; the round trip would not cover the policy")
	}

	snap := filepath.Join(t.TempDir(), "daly.snap")
	if _, err := runCapped(w, "EASY", opt, 2200, snap); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sess, err := es.ResumeSession(f, es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed daly run diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
}

func TestAutoUnit(t *testing.T) {
	w, err := es.BuildWorkload([]es.JobSpec{
		{ID: 1, Size: 64, Duration: 10, RequestedStart: -1},
		{ID: 2, Size: 96, Duration: 10, RequestedStart: -1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := autoUnit(w, 320); got != 32 {
		t.Errorf("autoUnit = %d, want 32", got)
	}
	w2, _ := es.BuildWorkload([]es.JobSpec{
		{ID: 1, Size: 7, Duration: 10, RequestedStart: -1},
	}, nil)
	if got := autoUnit(w2, 128); got != 1 {
		t.Errorf("autoUnit = %d, want 1 (gcd of 128 and 7)", got)
	}
}

func TestGCD(t *testing.T) {
	cases := [][3]int{{12, 8, 4}, {7, 128, 1}, {32, 320, 32}, {5, 0, 5}}
	for _, c := range cases {
		if got := gcd(c[0], c[1]); got != c[2] {
			t.Errorf("gcd(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

// TestValidateSharded pins the typed rejections of single-cluster-only
// flags under -clusters > 1, and of sharding knobs under -clusters 1 with
// or without single-cluster-only flags.
func TestValidateSharded(t *testing.T) {
	if err := validateSharded(1, sweepOpts{gantt: "-", until: 100, checkFile: "x"}, true); err != nil {
		t.Errorf("clusters=1 rejected: %v", err)
	}
	if err := validateSharded(4, sweepOpts{until: -1}, false); err != nil {
		t.Errorf("plain sharded run rejected: %v", err)
	}
	if err := validateSharded(1, sweepOpts{until: -1, route: "roundrobin"}, false); err != nil {
		t.Errorf("default route on clusters=1 rejected: %v", err)
	}
	for _, so := range []sweepOpts{{until: -1}, {gantt: "-", until: 100}} {
		so.route = "least-work"
		if err := validateSharded(1, so, false); !errors.Is(err, dispatch.ErrNeedsClusters) {
			t.Errorf("-route without clusters (%+v): got %v, want errors.Is(err, dispatch.ErrNeedsClusters)", so, err)
		}
	}
	if err := validateSharded(4, sweepOpts{until: -1, route: "least-work"}, false); err != nil {
		t.Errorf("routed sharded run rejected: %v", err)
	}
	for name, so := range map[string]sweepOpts{
		"epoch":          {until: -1, epoch: 500},
		"steal":          {until: -1, steal: true},
		"affinity":       {until: -1, affinity: 3},
		"epoch+gantt":    {gantt: "-", until: -1, epoch: 500},
		"steal+until":    {until: 100, steal: true},
		"affinity+until": {gantt: "x.svg", until: 100, affinity: 3},
	} {
		if err := validateSharded(1, so, false); !errors.Is(err, dispatch.ErrNeedsClusters) {
			t.Errorf("-%s without clusters: got %v, want errors.Is(err, dispatch.ErrNeedsClusters)", name, err)
		}
	}
	if err := validateSharded(4, sweepOpts{until: -1, epoch: 500, steal: true, affinity: 3, route: "feedback"}, false); err != nil {
		t.Errorf("dynamic sharded run rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		so       sweepOpts
		resuming bool
		want     error
	}{
		"gantt":      {sweepOpts{gantt: "-", until: -1}, false, ErrShardedRender},
		"jobs":       {sweepOpts{jobsOut: "-", until: -1}, false, ErrShardedRender},
		"until":      {sweepOpts{until: 100}, false, ErrShardedSession},
		"checkpoint": {sweepOpts{until: -1, checkFile: "x"}, false, ErrShardedSession},
		"resume":     {sweepOpts{until: -1}, true, ErrShardedSession},
	} {
		if err := validateSharded(2, tc.so, tc.resuming); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want errors.Is(err, %v)", name, err, tc.want)
		}
	}
}

// TestShardedSweep runs a multi-cluster sweep through the CLI path: the
// merged row appears and repeated runs agree byte-for-byte.
func TestShardedSweep(t *testing.T) {
	w := sweepWorkload(t)
	var out1, out2 bytes.Buffer
	so := sweepOpts{until: -1, clusters: 2}
	if err := runSweep(w, []string{"EASY", "Delayed-LOS"}, es.Options{M: 320, Unit: 32}, &out1, so); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(w, []string{"EASY", "Delayed-LOS"}, es.Options{M: 320, Unit: 32}, &out2, so); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Errorf("sharded sweep not reproducible:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(out1.String(), "Delayed-LOS") {
		t.Errorf("sharded sweep missing result row:\n%s", out1.String())
	}
}

// TestShardedSweepRoutes drives every routing policy through the CLI path:
// each produces a result row, and an unknown policy aborts the sweep.
func TestShardedSweepRoutes(t *testing.T) {
	w := sweepWorkload(t)
	for _, route := range []string{"roundrobin", "least-work", "best-fit"} {
		var out bytes.Buffer
		so := sweepOpts{until: -1, clusters: 2, route: route}
		if err := runSweep(w, []string{"EASY"}, es.Options{M: 320, Unit: 32}, &out, so); err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if !strings.Contains(out.String(), "EASY") {
			t.Errorf("%s: missing result row:\n%s", route, out.String())
		}
	}
	var out bytes.Buffer
	so := sweepOpts{until: -1, clusters: 2, route: "no-such-policy"}
	if err := runSweep(w, []string{"EASY"}, es.Options{M: 320, Unit: 32}, &out, so); err == nil {
		t.Error("unknown -route accepted")
	}
}

// TestShardedSweepDynamic drives the epoch protocol through the CLI path:
// stealing and feedback routing produce result rows and repeat byte-for-byte,
// while dynamic knobs without an epoch abort the sweep.
func TestShardedSweepDynamic(t *testing.T) {
	w := sweepWorkload(t)
	so := sweepOpts{until: -1, clusters: 2, epoch: 500, steal: true, route: "feedback"}
	var out1, out2 bytes.Buffer
	if err := runSweep(w, []string{"EASY"}, es.Options{M: 320, Unit: 32}, &out1, so); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(w, []string{"EASY"}, es.Options{M: 320, Unit: 32}, &out2, so); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Errorf("dynamic sharded sweep not reproducible:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(out1.String(), "EASY") {
		t.Errorf("dynamic sharded sweep missing result row:\n%s", out1.String())
	}
	var out bytes.Buffer
	noEpoch := sweepOpts{until: -1, clusters: 2, steal: true}
	if err := runSweep(w, []string{"EASY"}, es.Options{M: 320, Unit: 32}, &out, noEpoch); err == nil {
		t.Error("-steal without -epoch accepted")
	}
}
