package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/engine"
	"elastisched/internal/workload"
)

// epochEngine is the per-cluster template every epoch test shares.
func epochEngine() engine.Config {
	return engine.Config{M: 320, Unit: 32, ProcessECC: true}
}

// spanEpoch picks an epoch length of roughly 1/cuts of the workload's
// arrival span — long enough to batch work per round, short enough that the
// exchange step sees live queues.
func spanEpoch(w *cwf.Workload, cuts int64) int64 {
	var last int64
	for _, j := range w.Jobs {
		if j.Arrival > last {
			last = j.Arrival
		}
	}
	if e := last / cuts; e > 0 {
		return e
	}
	return 1
}

// skewDurations stretches job runtimes by heavy-tailed multipliers so some
// clusters back up while others idle — the traffic shape that makes the
// exchange step act. Deterministic for a fixed seed.
func skewDurations(w *cwf.Workload, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 2.0, 1, 50000)
	for _, j := range w.Jobs {
		j.Dur *= int64(1 + z.Uint64())
	}
}

// TestEpochTransparencyStaticRoutes: how a static split reaches its
// clusters is an implementation detail. A static policy with stealing off
// is loaded — each cluster's part Loaded up front, no barrier — at any
// Epoch, so it reports no epochs and no ownership map. With stealing on
// over traffic where no steal fires, the same split is released window by
// window at barriers instead, and must reproduce the loaded run exactly:
// merged summary, ECC accounting, event and cycle counts, and every
// cluster result, with and without faults.
func TestEpochTransparencyStaticRoutes(t *testing.T) {
	p := workload.DefaultParams()
	// Narrow jobs only, at a light load: no batch queue forms for the steal
	// pass to act on.
	p.N, p.Seed, p.PS = 240, 7, 1
	p.PD, p.PE, p.PR = 0.2, 0.2, 0.1
	p.TargetLoad = 0.15
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range staticPolicies {
		t.Run(route, func(t *testing.T) {
			for _, faults := range []*engine.FaultConfig{nil, {MTBF: 2e5, MTTR: 5e3, Seed: 3}} {
				base := Config{
					Clusters:     4,
					Engine:       epochEngine(),
					NewScheduler: losFactory,
					Route:        route,
				}
				base.Engine.Faults = faults
				ref, err := Run(w, base)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Epochs != 0 || ref.Owners != nil {
					t.Fatalf("faults=%t: loaded run reports epochs=%d owners=%v", faults != nil, ref.Epochs, ref.Owners)
				}
				if faults != nil && ref.Merged.DownProcSeconds == 0 {
					t.Fatal("fault model produced no downtime; the faults cell exercises nothing")
				}
				cfg := base
				cfg.Epoch = 1009
				if got, err := Run(w, cfg); err != nil {
					t.Fatal(err)
				} else if !reflect.DeepEqual(got, ref) {
					t.Errorf("faults=%t: a static split with stealing off differs between Epoch 0 and %d",
						faults != nil, cfg.Epoch)
				}

				cfg.Steal = true
				got, err := Run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Epochs == 0 {
					t.Fatal("barrier path not taken")
				}
				if got.Steals != 0 {
					t.Fatalf("faults=%t: %d steals; the traffic no longer keeps the static split", faults != nil, got.Steals)
				}
				if !reflect.DeepEqual(got.Merged, ref.Merged) {
					t.Errorf("faults=%t: merged summary differs:\nreleased %+v\nloaded   %+v", faults != nil, got.Merged, ref.Merged)
				}
				if !reflect.DeepEqual(got.ECC, ref.ECC) || got.DroppedECC != ref.DroppedECC {
					t.Errorf("faults=%t: ECC accounting differs: released %+v/%d, loaded %+v/%d",
						faults != nil, got.ECC, got.DroppedECC, ref.ECC, ref.DroppedECC)
				}
				if got.Events != ref.Events || got.Cycles != ref.Cycles {
					t.Errorf("faults=%t: events/cycles differ: released %d/%d, loaded %d/%d",
						faults != nil, got.Events, got.Cycles, ref.Events, ref.Cycles)
				}
				// Serialized: a cluster routed no job holds nil sample vectors
				// when fed by Inject and empty ones when Loaded.
				gotC, _ := json.Marshal(got.Clusters)
				refC, _ := json.Marshal(ref.Clusters)
				if !bytes.Equal(gotC, refC) {
					t.Errorf("faults=%t: per-cluster results differ", faults != nil)
				}
			}
		})
	}
}

// TestEpochDeterminismAcrossWorkers extends the tentpole determinism bar to
// the dynamic policies: stealing under every static route, feedback
// routing, and feedback with stealing and affinity pinning must all be
// byte-identically reproducible for 1, 2, 4, and 8 workers.
func TestEpochDeterminismAcrossWorkers(t *testing.T) {
	w := testWorkload(t, 240, 7)
	skewDurations(w, 99)
	epoch := spanEpoch(w, 100)
	cells := []struct {
		name     string
		route    string
		steal    bool
		affinity int
	}{
		{"steal-roundrobin", RouteRoundRobin, true, 0},
		{"steal-least-work", RouteLeastWork, true, 0},
		{"steal-best-fit", RouteBestFit, true, 0},
		{"feedback", RouteFeedback, false, 0},
		{"feedback-steal-affinity", RouteFeedback, true, 3},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			var golden []byte
			for _, workers := range []int{1, 2, 4, 8} {
				res, err := Run(w, Config{
					Clusters:     4,
					Workers:      workers,
					Engine:       epochEngine(),
					NewScheduler: losFactory,
					Route:        cell.route,
					Epoch:        epoch,
					Steal:        cell.steal,
					Affinity:     cell.affinity,
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
					t.Fatalf("workers=%d: result differs from workers=1", workers)
				}
			}
		})
	}
}

// TestStealPartitionInvariant: stealing moves jobs between clusters but
// never loses, duplicates, or drops one — every submission completes on
// exactly one cluster, and the ownership map agrees with the per-cluster
// job counts.
func TestStealPartitionInvariant(t *testing.T) {
	w := testWorkload(t, 240, 7)
	skewDurations(w, 99)
	res, err := Run(w, Config{
		Clusters:     4,
		Workers:      2,
		Engine:       epochEngine(),
		NewScheduler: losFactory,
		Route:        RouteRoundRobin,
		Epoch:        spanEpoch(w, 100),
		Steal:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Fatal("no steals on skewed traffic; the test exercises nothing")
	}
	total := 0
	for _, c := range res.Clusters {
		total += c.Result.Summary.Jobs
	}
	if total != len(w.Jobs) {
		t.Fatalf("clusters completed %d jobs, workload has %d", total, len(w.Jobs))
	}
	if res.Merged.Jobs != len(w.Jobs) || res.Merged.JobsFinished != len(w.Jobs) {
		t.Fatalf("merged counts %d/%d, want %d completed",
			res.Merged.Jobs, res.Merged.JobsFinished, len(w.Jobs))
	}
	if len(res.Owners) != len(w.Jobs) {
		t.Fatalf("ownership map holds %d jobs, workload has %d", len(res.Owners), len(w.Jobs))
	}
	counts := make([]int, len(res.Clusters))
	for _, c := range res.Owners {
		counts[c]++
	}
	for i, cr := range res.Clusters {
		if cr.Jobs != counts[i] {
			t.Errorf("cluster %d reports %d jobs, ownership map says %d", i, cr.Jobs, counts[i])
		}
		if cr.Result.Summary.Jobs != counts[i] {
			t.Errorf("cluster %d completed %d jobs, ownership map says %d",
				i, cr.Result.Summary.Jobs, counts[i])
		}
	}
}

// TestCommandsFollowUnderStealing: commands always reach the cluster that
// owns their job at delivery time, so turning stealing on must deliver
// exactly the same command stream — same processed total, same
// unknown-job count (which depends only on issue-before-arrival timing).
func TestCommandsFollowUnderStealing(t *testing.T) {
	w := testWorkload(t, 240, 7)
	skewDurations(w, 99)
	if len(w.Commands) == 0 {
		t.Fatal("workload has no commands; the test exercises nothing")
	}
	base := Config{
		Clusters:     4,
		Engine:       epochEngine(),
		NewScheduler: losFactory,
		Route:        RouteRoundRobin,
	}
	ref, err := Run(w, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Epoch = spanEpoch(w, 100)
	cfg.Steal = true
	got, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Steals == 0 {
		t.Fatal("no steals; the test exercises nothing")
	}
	if got.ECC.Total != ref.ECC.Total {
		t.Errorf("stealing processed %d commands, static %d", got.ECC.Total, ref.ECC.Total)
	}
	if got.ECC.IgnoredUnknown != ref.ECC.IgnoredUnknown {
		t.Errorf("stealing ignored %d unknown-job commands, static %d",
			got.ECC.IgnoredUnknown, ref.ECC.IgnoredUnknown)
	}
}

// TestAffinityNeverViolated: pinned jobs stay on their home cluster no
// matter how the exchange step rebalances everything else.
func TestAffinityNeverViolated(t *testing.T) {
	const clusters, affinity = 4, 2
	w := testWorkload(t, 240, 7)
	skewDurations(w, 99)
	res, err := Run(w, Config{
		Clusters:     clusters,
		Engine:       epochEngine(),
		NewScheduler: losFactory,
		Route:        RouteFeedback,
		Epoch:        spanEpoch(w, 100),
		Steal:        true,
		Affinity:     affinity,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Fatal("no steals; the test exercises nothing")
	}
	pinned := 0
	for id, c := range res.Owners {
		if pin := PinnedCluster(id, affinity, clusters); pin >= 0 {
			pinned++
			if c != pin {
				t.Errorf("job %d pinned to cluster %d but completed on %d", id, pin, c)
			}
		}
	}
	if pinned == 0 {
		t.Fatal("no job was pinned; the test exercises nothing")
	}
}

// TestStealFaultDeterminism: fault injection composes with the exchange
// step — failure victims requeue rigid and are never stolen — and the
// combined run is still identical across worker counts.
func TestStealFaultDeterminism(t *testing.T) {
	w := testWorkload(t, 160, 11)
	skewDurations(w, 99)
	cfg := Config{
		Clusters: 2,
		Engine: engine.Config{
			M: 320, Unit: 32, ProcessECC: true,
			Faults: &engine.FaultConfig{MTBF: 2e5, MTTR: 5e3, Seed: 3},
		},
		NewScheduler: losFactory,
		Route:        RouteRoundRobin,
		Epoch:        spanEpoch(w, 100),
		Steal:        true,
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
		t.Fatal("fault-injected stealing run differs between 1 and 2 workers")
	}
	if r1.Merged.DownProcSeconds == 0 {
		t.Fatal("fault model produced no downtime; the test exercises nothing")
	}
}

// TestSingleClusterRejectsShardingKnobs: one cluster has no peer to route
// to, exchange with, or pin on, so every sharding knob is rejected with
// ErrNeedsClusters rather than silently ignored. Naming the round-robin
// default is not a knob and runs the plain path.
func TestSingleClusterRejectsShardingKnobs(t *testing.T) {
	w := testWorkload(t, 20, 3)
	base := Config{
		Clusters:     1,
		Engine:       epochEngine(),
		NewScheduler: losFactory,
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"least-work route", func(c *Config) { c.Route = RouteLeastWork }},
		{"feedback route", func(c *Config) { c.Route, c.Epoch = RouteFeedback, 500 }},
		{"epoch", func(c *Config) { c.Epoch = 500 }},
		{"steal", func(c *Config) { c.Epoch, c.Steal = 500, true }},
		{"affinity", func(c *Config) { c.Epoch, c.Affinity = 500, 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := Run(w, cfg); !errors.Is(err, ErrNeedsClusters) {
				t.Fatalf("got %v, want errors.Is(err, ErrNeedsClusters)", err)
			}
		})
	}
	cfg := base
	cfg.Route = RouteRoundRobin
	if _, err := Run(w, cfg); err != nil {
		t.Fatalf("single cluster naming the default route: %v", err)
	}
}

// TestEpochConfigErrors pins ErrEpochRequired for every dynamic feature
// requested without an epoch on a multi-cluster run, and the typed
// rejection of a negative affinity, which would otherwise turn pinning off
// silently.
func TestEpochConfigErrors(t *testing.T) {
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
		{"steal without epoch", func(c *Config) { c.Steal = true }, ErrEpochRequired},
		{"affinity without epoch", func(c *Config) { c.Affinity = 4 }, ErrEpochRequired},
		{"feedback without epoch", func(c *Config) { c.Route = RouteFeedback }, ErrEpochRequired},
		{"negative epoch", func(c *Config) { c.Epoch = -7 }, ErrEpochRequired},
		{"negative affinity", func(c *Config) { c.Epoch, c.Affinity = 500, -3 }, ErrNegativeAffinity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := Run(w, cfg); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// TestStealBeatsStaticOnSkew is the simulated-metric half of the headline
// claim: on runtime-skewed traffic over 8 clusters, the exchange step
// improves mean wait over the same routing policy without it, and
// round-robin with stealing recovers (at least) static least-work quality.
func TestStealBeatsStaticOnSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run skew comparison")
	}
	const clusters = 8
	w := skewedWorkload(t, clusters)
	epoch := spanEpoch(w, 5000)
	run := func(route string, steal bool) *Result {
		t.Helper()
		cfg := Config{
			Clusters:     clusters,
			Engine:       engine.Config{M: 320, Unit: 32},
			NewScheduler: losFactory,
			Route:        route,
		}
		if steal {
			cfg.Epoch = epoch
			cfg.Steal = true
		}
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lw := run(RouteLeastWork, false)
	rr := run(RouteRoundRobin, false)
	rrSteal := run(RouteRoundRobin, true)
	lwSteal := run(RouteLeastWork, true)
	fbSteal := run(RouteFeedback, true)
	if rrSteal.Steals == 0 {
		t.Fatal("no steals on skewed round-robin traffic; the test exercises nothing")
	}
	if got, want := rrSteal.Merged.MeanWait, rr.Merged.MeanWait; got > want {
		t.Errorf("stealing worsened round-robin mean wait: %.1f > %.1f", got, want)
	}
	if got, want := lwSteal.Merged.MeanWait, lw.Merged.MeanWait; got > want {
		t.Errorf("stealing worsened least-work mean wait: %.1f > %.1f", got, want)
	}
	if got, want := rrSteal.Merged.MeanWait, lw.Merged.MeanWait; got > want {
		t.Errorf("round-robin with stealing (%.1f) did not recover static least-work (%.1f)", got, want)
	}
	if got, want := fbSteal.Merged.MeanWait, lw.Merged.MeanWait; got > want {
		t.Errorf("feedback with stealing (%.1f) did not beat static least-work (%.1f)", got, want)
	}
}
