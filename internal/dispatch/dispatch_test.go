package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/engine"
	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

// testWorkload generates a mixed workload: batch and dedicated jobs plus an
// ET/RT command stream, so routing must carry every stream correctly.
func testWorkload(t testing.TB, n int, seed int64) *cwf.Workload {
	t.Helper()
	p := workload.DefaultParams()
	p.N = n
	p.Seed = seed
	p.PD = 0.2
	p.PE = 0.2
	p.PR = 0.1
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func losFactory() sched.Scheduler { return core.NewLOS(true) }

// TestShardedDeterminismAcrossWorkers is the tentpole determinism bar: for
// every routing policy, the complete sharded result must be
// byte-identically reproducible for 1, 2, 4, and 8 workers.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	w := testWorkload(t, 240, 7)
	for _, route := range staticPolicies {
		t.Run(route, func(t *testing.T) {
			var golden []byte
			for _, workers := range []int{1, 2, 4, 8} {
				res, err := Run(w, Config{
					Clusters:     4,
					Workers:      workers,
					Engine:       engine.Config{M: 320, Unit: 32, ProcessECC: true},
					NewScheduler: losFactory,
					Route:        route,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				buf, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if golden == nil {
					golden = buf
					continue
				}
				if !bytes.Equal(golden, buf) {
					t.Fatalf("workers=%d: result differs from workers=1:\n%s\nvs\n%s", workers, golden, buf)
				}
			}
		})
	}
}

// TestShardedFaultDeterminism pins the per-cluster fault-seed offsets: with
// fault injection on, the sharded outcome is still identical across worker
// counts, and distinct clusters draw distinct fault streams.
func TestShardedFaultDeterminism(t *testing.T) {
	w := testWorkload(t, 160, 11)
	cfg := Config{
		Clusters: 2,
		Engine: engine.Config{
			M: 320, Unit: 32, ProcessECC: true,
			Faults: &engine.FaultConfig{MTBF: 2e5, MTTR: 5e3, Seed: 3},
		},
		NewScheduler: losFactory,
	}
	cfg.Workers = 1
	r1, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	r2, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("fault-injected sharded run differs between 1 and 2 workers")
	}
	if r1.Merged.DownProcSeconds == 0 {
		t.Fatal("fault model produced no downtime; the test exercises nothing")
	}
}

// TestSingleClusterMatchesEngine: one cluster is a one-part static split
// through the epoch loop, and its cluster result must DeepEqual (so also
// encode to the same JSON as) engine.Run on the same workload — for a
// plain run and for one with every engine feature on: ECC, sampled faults
// with daly checkpoints, malleable resizing and contiguous allocation. The
// merged summary must agree on the mergeable fields.
func TestSingleClusterMatchesEngine(t *testing.T) {
	p := workload.DefaultParams()
	p.N, p.Seed, p.TargetLoad = 160, 13, 0.9
	p.PD, p.PE, p.PR, p.PM = 0.2, 0.2, 0.1, 1.0
	full, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		w        *cwf.Workload
		cfg      engine.Config
		newSched func() sched.Scheduler
	}{
		{"plain", testWorkload(t, 200, 3), engine.Config{M: 320, Unit: 32, ProcessECC: true}, losFactory},
		{"ecc-faults-malleable-contiguous", full, engine.Config{
			M: 320, Unit: 32, ProcessECC: true, Contiguous: true,
			Malleable: true, ResizeOverhead: 20,
			Faults: &engine.FaultConfig{MTBF: 40000, MTTR: 2000, Seed: 5,
				Checkpoint: fault.CheckpointDaly, CheckpointCost: 30},
		}, func() sched.Scheduler { return sched.NewAutoResize(&sched.EASY{Ded: true}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.w, Config{Clusters: 1, Engine: tc.cfg, NewScheduler: tc.newSched})
			if err != nil {
				t.Fatal(err)
			}
			ecfg := tc.cfg
			ecfg.Scheduler = tc.newSched()
			ref, err := engine.Run(tc.w, ecfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := ref.Summary; tc.cfg.Faults != nil && (s.KilledJobs == 0 || s.CheckpointsTaken == 0 ||
				s.SchedulerResizes == 0 || ref.ECC.Applied == 0) {
				t.Fatalf("scenario drifted: kills %d, checkpoints %d, resizes %d, ECCs applied %d",
					s.KilledJobs, s.CheckpointsTaken, s.SchedulerResizes, ref.ECC.Applied)
			}
			if !reflect.DeepEqual(res.Clusters[0].Result, ref) {
				t.Fatalf("cluster result %+v != engine result %+v", res.Clusters[0].Result, ref)
			}
			m, s := res.Merged, ref.Summary
			if m.Jobs != s.Jobs || m.MachineSize != s.MachineSize ||
				m.WindowStart != s.WindowStart || m.WindowEnd != s.WindowEnd ||
				m.DedicatedJobs != s.DedicatedJobs || m.MaxWait != s.MaxWait {
				t.Fatalf("merged %+v disagrees with engine summary %+v", m, s)
			}
			for _, c := range []struct {
				name string
				a, b float64
			}{
				{"Utilization", m.Utilization, s.Utilization},
				{"MeanWait", m.MeanWait, s.MeanWait},
				{"MeanRun", m.MeanRun, s.MeanRun},
				{"Slowdown", m.Slowdown, s.Slowdown},
				{"MeanBatchWait", m.MeanBatchWait, s.MeanBatchWait},
				{"MeanDedWait", m.MeanDedWait, s.MeanDedWait},
			} {
				if math.Abs(c.a-c.b) > 1e-9*(1+math.Abs(c.b)) {
					t.Errorf("merged %s = %g, engine %g", c.name, c.a, c.b)
				}
			}
		})
	}
}

// TestRouting checks the static round-robin split — submission i on
// cluster i mod 4, and the home map agreeing — and that every command
// lands on its job's cluster.
func TestRouting(t *testing.T) {
	w := testWorkload(t, 103, 5)
	rr, err := NewRouter(RouteRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	homes := make([]int, len(w.Jobs))
	parts, home := split(w, 4, 320, 0, rr, homes)
	for i, j := range w.Jobs {
		if homes[i] != home[j.ID] {
			t.Errorf("position %d (job %d): homes says cluster %d, the home map %d", i, j.ID, homes[i], home[j.ID])
		}
	}
	total := 0
	for c, p := range parts {
		total += len(p.Jobs)
		owned := map[int]bool{}
		for k, j := range p.Jobs {
			if want := w.Jobs[4*k+c]; j != want {
				t.Errorf("cluster %d position %d holds job %d, want job %d", c, k, j.ID, want.ID)
			}
			if home[j.ID] != c {
				t.Errorf("home map puts job %d on cluster %d, the split on %d", j.ID, home[j.ID], c)
			}
			owned[j.ID] = true
		}
		for _, cmd := range p.Commands {
			if !owned[cmd.JobID] {
				t.Errorf("cluster %d holds %v for a job it does not own", c, cmd)
			}
		}
	}
	if total != len(w.Jobs) {
		t.Fatalf("routed %d jobs, workload has %d", total, len(w.Jobs))
	}
	routedCmds := 0
	for _, p := range parts {
		routedCmds += len(p.Commands)
	}
	if routedCmds != len(w.Commands) {
		t.Fatalf("routed %d commands, workload has %d", routedCmds, len(w.Commands))
	}
}

type nopObserver struct{}

func (nopObserver) JobStarted(*job.Job, int64, []int)          {}
func (nopObserver) JobFinished(*job.Job, int64)                {}
func (nopObserver) JobResized(*job.Job, int64, int, int, bool) {}
func (nopObserver) JobKilled(*job.Job, int64)                  {}

// TestConfigErrors pins the errors.Is-testable rejection of invalid
// configurations.
func TestConfigErrors(t *testing.T) {
	w := testWorkload(t, 20, 1)
	base := Config{
		Clusters:     2,
		Engine:       engine.Config{M: 320, Unit: 32},
		NewScheduler: losFactory,
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"zero clusters", func(c *Config) { c.Clusters = 0 }, ErrClusterCount},
		{"negative clusters", func(c *Config) { c.Clusters = -3 }, ErrClusterCount},
		{"no factory", func(c *Config) { c.NewScheduler = nil }, ErrNoScheduler},
		{"template scheduler", func(c *Config) { c.Engine.Scheduler = core.NewLOS(true) }, ErrTemplateScheduler},
		{"template observer", func(c *Config) { c.Engine.Observer = nopObserver{} }, ErrTemplateObserver},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			_, err := Run(w, cfg)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// TestClusterError: an engine-level failure inside any cluster is wrapped
// with its cluster index and surfaced (first failing cluster in index
// order).
func TestClusterError(t *testing.T) {
	w := testWorkload(t, 30, 2)
	// A batch-only scheduler with dedicated jobs in the stream fails at
	// Load on whichever clusters received dedicated jobs.
	_, err := Run(w, Config{
		Clusters:     2,
		Engine:       engine.Config{M: 320, Unit: 32},
		NewScheduler: func() sched.Scheduler { return sched.FCFS{} },
	})
	if err == nil {
		t.Fatal("expected an error from dedicated jobs under a batch-only policy")
	}
}
