package dispatch

import (
	"fmt"
	"math/rand"
	"testing"

	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/engine"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

// shardedWorkload builds an N×-traffic workload for N clusters: jobs are
// generated at the paper's per-cluster geometry (M=320), then the arrival
// stream is compressed by the cluster count so each cluster sees the
// paper's offered load.
func shardedWorkload(b *testing.B, clusters int) *cwf.Workload {
	b.Helper()
	p := workload.DefaultParams()
	p.N = 500 * clusters
	p.Seed = 42
	w, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	if clusters > 1 {
		for _, j := range w.Jobs {
			j.Arrival /= int64(clusters)
		}
		for i := range w.Commands {
			w.Commands[i].Issue /= int64(clusters)
		}
	}
	return w
}

// skewedWorkload builds the runtime-skewed (zipfian) variant of the
// sharded traffic: job durations are stretched by heavy-tailed
// multipliers, so a handful of giant jobs carry most of the
// processor-seconds, then the arrival stream is rescaled to a fixed
// offered load per cluster. Under round-robin the giants collide on
// whichever shards their submission indices hit, pushing those shards
// past saturation — their queues, and with them the per-cycle scheduling
// cost, grow without bound — while least-work spreads the same
// processor-seconds evenly. The workload is identical for every policy;
// only the split differs.
func skewedWorkload(tb testing.TB, clusters int) *cwf.Workload {
	tb.Helper()
	p := workload.DefaultParams()
	p.N = 500 * clusters
	p.Seed = 42
	w, err := workload.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	z := rand.NewZipf(rng, 2.5, 1, 100000)
	for _, j := range w.Jobs {
		k := z.Uint64()
		j.Dur *= int64(1 + k)
		if k >= 50 {
			// The zipf tail: machine-wide capability runs. Wide AND long,
			// these are the jobs whose placement decides shard congestion.
			j.Size = 320
			j.Dur *= 8
		}
	}
	// Rescale arrivals (monotonically, preserving submission order) so the
	// global offered load is 0.10 regardless of how much work the skew
	// added: the balanced split must stay comfortably under-loaded, so the
	// cost difference is pure giant-collision backlog, not ambient load.
	scale := w.Load(320*clusters) / 0.10
	for _, j := range w.Jobs {
		j.Arrival = int64(float64(j.Arrival) * scale)
	}
	for i := range w.Commands {
		w.Commands[i].Issue = int64(float64(w.Commands[i].Issue) * scale)
	}
	return w
}

// BenchmarkShardedSkewE2E is the routing-policy wall-clock comparison on
// the skewed traffic: the same global workload dispatched by round-robin
// versus least-work over 4/8/16 clusters. The benchmark gate
// (cmd/benchgate) pins least-work's advantage at 8 clusters.
func BenchmarkShardedSkewE2E(b *testing.B) {
	for _, route := range []string{RouteRoundRobin, RouteLeastWork} {
		for _, clusters := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("route=%s/clusters=%d", route, clusters), func(b *testing.B) {
				w := skewedWorkload(b, clusters)
				cfg := Config{
					Clusters:     clusters,
					Route:        route,
					Engine:       engine.Config{M: 320, Unit: 32},
					NewScheduler: func() sched.Scheduler { return core.NewLOS(true) },
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Run(w, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShardedStealE2E is the epoch-protocol comparison on the skewed
// traffic at 8 clusters: the static splits (round-robin, least-work)
// against the same policies with barrier stealing, and feedback routing
// with stealing. The giant-collision backlog that sinks static round-robin
// is exactly what stealing repairs — blocked heads migrate to idle shards
// at the next barrier — so the dynamic cells must close the gap below
// static least-work on mean wait and makespan. Each cell reports the
// merged mean wait, makespan, and steal count (all deterministic for the
// fixed workload), which the benchmark gate (cmd/benchgate) pins as
// same-run ratios.
func BenchmarkShardedStealE2E(b *testing.B) {
	const clusters = 8
	for _, cell := range []struct {
		route string
		steal bool
	}{
		{RouteRoundRobin, false},
		{RouteLeastWork, false},
		{RouteRoundRobin, true},
		{RouteLeastWork, true},
		{RouteFeedback, true},
	} {
		b.Run(fmt.Sprintf("route=%s/steal=%t", cell.route, cell.steal), func(b *testing.B) {
			w := skewedWorkload(b, clusters)
			cfg := Config{
				Clusters:     clusters,
				Route:        cell.route,
				Engine:       engine.Config{M: 320, Unit: 32},
				NewScheduler: func() sched.Scheduler { return core.NewLOS(true) },
			}
			if cell.steal || cell.route == RouteFeedback {
				// One barrier every 1/5000th of the arrival span: fine
				// enough that a blocked giant waits a negligible slice of
				// its runtime before migrating.
				cfg.Epoch = spanEpoch(w, 5000)
				cfg.Steal = cell.steal
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res *Result
			for i := 0; i < b.N; i++ {
				r, err := Run(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(res.Merged.MeanWait, "meanwait")
			b.ReportMetric(float64(res.Merged.WindowEnd-res.Merged.WindowStart), "makespan")
			b.ReportMetric(float64(res.Steals), "steals")
		})
	}
}

// BenchmarkShardedE2E is the end-to-end scaling harness: one global
// workload of clusters×500 jobs dispatched over 1/2/4 parallel cluster
// sessions. The single-cluster case is BenchmarkSimulate500's shape behind
// the dispatcher, so the dispatch overhead is directly visible, and the
// multi-cluster cases show the wall-clock win of sharding N× traffic.
func BenchmarkShardedE2E(b *testing.B) {
	for _, clusters := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			w := shardedWorkload(b, clusters)
			cfg := Config{
				Clusters:     clusters,
				Engine:       engine.Config{M: 320, Unit: 32},
				NewScheduler: func() sched.Scheduler { return core.NewLOS(true) },
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(w, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedSteal64 is the epoch protocol at scale: round-robin with
// stealing over 64 clusters of the skewed traffic, one barrier per 1/5000th
// of the arrival span. Most barriers touch a handful of clusters, so the
// cell measures what a barrier costs beyond the sessions it steps: the
// release, the digests and the exchange. It reports the barrier and steal
// counts, which are deterministic for the fixed workload.
func BenchmarkShardedSteal64(b *testing.B) {
	const clusters = 64
	w := skewedWorkload(b, clusters)
	cfg := Config{
		Clusters:     clusters,
		Route:        RouteRoundRobin,
		Engine:       engine.Config{M: 320, Unit: 32},
		NewScheduler: func() sched.Scheduler { return core.NewLOS(true) },
		Epoch:        spanEpoch(w, 5000),
		Steal:        true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		r, err := Run(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.Epochs), "epochs")
	b.ReportMetric(float64(res.Steals), "steals")
}
