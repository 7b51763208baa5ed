package dispatch

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/engine"
	"elastisched/internal/job"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
)

// TestMergedSlowdownJobWeighted pins the job-weighted slowdown merge with a
// deliberately asymmetric two-cluster split: cluster 0 gets machine-wide
// short jobs that serialize (high slowdown), cluster 1 gets narrow long
// jobs that never wait (slowdown 1). The merged value must be the
// job-weighted mean of the per-cluster slowdowns — and must NOT be the
// ratio recomputed from the global means, which the asymmetry drives far
// from the weighted view (the ratio of averages is not the average of
// ratios).
func TestMergedSlowdownJobWeighted(t *testing.T) {
	var jobs []*job.Job
	for i := 0; i < 8; i++ {
		j := &job.Job{ID: i + 1, Arrival: int64(i * 5), ReqStart: -1}
		if i%2 == 0 {
			j.Size, j.Dur = 320, 100 // even index → cluster 0 under round-robin
		} else {
			j.Size, j.Dur = 32, 10000 // odd index → cluster 1
		}
		jobs = append(jobs, j)
	}
	w := &cwf.Workload{Jobs: jobs}
	res, err := Run(w, Config{
		Clusters:     2,
		Engine:       engine.Config{M: 320, Unit: 32},
		NewScheduler: func() sched.Scheduler { return sched.FCFS{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := res.Clusters[0].Result.Summary, res.Clusters[1].Result.Summary
	if s0.MeanWait == 0 || s1.MeanWait != 0 {
		t.Fatalf("scenario drifted: cluster waits %g / %g, want contention only on cluster 0",
			s0.MeanWait, s1.MeanWait)
	}
	n0, n1 := float64(s0.Jobs), float64(s1.Jobs)
	want := (s0.Slowdown*n0 + s1.Slowdown*n1) / (n0 + n1)
	if got := res.Merged.Slowdown; got != want {
		t.Fatalf("merged Slowdown = %g, want job-weighted %g", got, want)
	}
	ratioOfMeans := (res.Merged.MeanWait + res.Merged.MeanRun) / res.Merged.MeanRun
	if math.Abs(want-ratioOfMeans) < 0.1 {
		t.Fatalf("weighted (%g) and ratio-of-means (%g) agree; the asymmetry test is vacuous",
			want, ratioOfMeans)
	}
}

// TestMergedOrderStatsExact is the differential acceptance test for the
// exact global order statistics: for every routing policy, the merged
// MedianWait/P95Wait must equal — exactly, not approximately — the values
// computed from the per-cluster sample vectors concatenated in
// cluster-index order, and the steady-state window, utilization, and mean
// wait must equal an independent recomputation from the same samples
// using the collector's formulas. Two more rows cover the edges of the
// shared computation: a cluster that completes no job, and fewer than 10
// completions overall (the whole-window fallback with zero steady
// measures).
func TestMergedOrderStatsExact(t *testing.T) {
	w := testWorkload(t, 180, 17)
	base := Config{
		Clusters:     3,
		Engine:       engine.Config{M: 320, Unit: 32, ProcessECC: true},
		NewScheduler: losFactory,
	}
	type row struct {
		name string
		w    *cwf.Workload
		cfg  Config
	}
	var rows []row
	for _, policy := range staticPolicies {
		cfg := base
		cfg.Route = policy
		rows = append(rows, row{policy, w, cfg})
	}
	// Affinity 1 pins every job to cluster ID mod 3; with no ID ≡ 2 left,
	// cluster 2 completes nothing. Without stealing the split stays fixed.
	empty := base
	empty.Epoch, empty.Affinity = 1000, 1
	rows = append(rows, row{"empty-cluster", subWorkload(w, func(j *job.Job) bool { return j.ID%3 != 2 }), empty})
	rows = append(rows, row{"under-ten", subWorkload(w, func(j *job.Job) bool { return j.ID <= w.Jobs[6].ID }), base})

	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.w
			res, err := Run(w, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			samples := clusterSamples(t, w, tc.cfg, res)

			// Concatenate samples in cluster-index order, as the merge does.
			var waits []float64
			var perJob []metrics.JobPoint
			for _, sm := range samples {
				waits = append(waits, sm.Waits...)
				perJob = append(perJob, sm.PerJob...)
			}
			n := len(waits)
			if n != res.Merged.Jobs {
				t.Fatalf("%d wait samples for %d merged jobs", n, res.Merged.Jobs)
			}
			switch tc.name {
			case "empty-cluster":
				if res.Clusters[2].Result.Summary.Jobs != 0 || n < 10 {
					t.Fatalf("scenario drifted: cluster 2 completed %d jobs, %d overall",
						res.Clusters[2].Result.Summary.Jobs, n)
				}
			case "under-ten":
				if n == 0 || n >= 10 {
					t.Fatalf("scenario drifted: %d completions, want 1..9", n)
				}
			}

			// Median / p95 against a full sort of the concatenation.
			sorted := append([]float64(nil), waits...)
			sort.Float64s(sorted)
			if want := sorted[int(0.5*float64(n-1))]; res.Merged.MedianWait != want {
				t.Errorf("MedianWait = %v, sorted concatenation gives %v", res.Merged.MedianWait, want)
			}
			if want := sorted[int(0.95*float64(n-1))]; res.Merged.P95Wait != want {
				t.Errorf("P95Wait = %v, sorted concatenation gives %v", res.Merged.P95Wait, want)
			}

			if n < 10 {
				// The collector's fallback: the whole window, first arrival
				// to last completion, with zero steady measures.
				first, last := perJob[0].Arrival, perJob[0].Finish
				for _, p := range perJob {
					first, last = min(first, p.Arrival), max(last, p.Finish)
				}
				if res.Merged.SteadyWindow != [2]int64{first, last} {
					t.Errorf("SteadyWindow = %v, want the whole window [%d %d]", res.Merged.SteadyWindow, first, last)
				}
				if res.Merged.SteadyUtilization != 0 || res.Merged.SteadyMeanWait != 0 {
					t.Errorf("steady measures %v/%v, want 0/0 below 10 completions",
						res.Merged.SteadyUtilization, res.Merged.SteadyMeanWait)
				}
				return
			}

			// Steady window from the sorted global completion instants.
			finishes := make([]int64, n)
			for i, p := range perJob {
				finishes[i] = p.Finish
			}
			sort.Slice(finishes, func(i, j int) bool { return finishes[i] < finishes[j] })
			t0, t1 := finishes[n/10], finishes[n-1-n/10]
			if res.Merged.SteadyWindow != [2]int64{t0, t1} {
				t.Fatalf("SteadyWindow = %v, want [%d %d]", res.Merged.SteadyWindow, t0, t1)
			}
			if t1 <= t0 {
				t.Fatalf("degenerate steady window [%d %d]; pick a bigger workload", t0, t1)
			}

			// Steady utilization and mean wait, reaccumulated in the same
			// cluster-index order so the floating-point sums are identical.
			var area, waitSum float64
			var steadyJobs int
			for _, sm := range samples {
				area += busyArea(sm.BusySteps, t0, t1)
				for _, p := range sm.PerJob {
					if p.Arrival >= t0 && p.Arrival <= t1 {
						waitSum += p.Wait
						steadyJobs++
					}
				}
			}
			wantUtil := area / (float64(t1-t0) * float64(res.Merged.MachineSize))
			if res.Merged.SteadyUtilization != wantUtil {
				t.Errorf("SteadyUtilization = %v, recomputation gives %v", res.Merged.SteadyUtilization, wantUtil)
			}
			if steadyJobs == 0 {
				t.Fatal("no arrivals inside the steady window; the scenario exercises nothing")
			}
			if want := waitSum / float64(steadyJobs); res.Merged.SteadyMeanWait != want {
				t.Errorf("SteadyMeanWait = %v, recomputation gives %v", res.Merged.SteadyMeanWait, want)
			}
			if res.Merged.SteadyUtilization <= 0 || res.Merged.MedianWait < 0 {
				t.Error("order statistics look unpopulated")
			}
		})
	}
}

// subWorkload returns the jobs of w that keep accepts, with their commands.
func subWorkload(w *cwf.Workload, keep func(*job.Job) bool) *cwf.Workload {
	sub := &cwf.Workload{Header: w.Header}
	kept := map[int]bool{}
	for _, j := range w.Jobs {
		if keep(j) {
			sub.Jobs = append(sub.Jobs, j)
			kept[j.ID] = true
		}
	}
	for _, cmd := range w.Commands {
		if kept[cmd.JobID] {
			sub.Commands = append(sub.Commands, cmd)
		}
	}
	return sub
}

// clusterSamples replays each cluster's part of a run whose split is fixed
// up front (a static policy, stealing off) in a fresh session, and returns
// the sessions' sample views in cluster-index order: the merge's inputs,
// rebuilt without the dispatcher. Each replay must reproduce the
// dispatcher's summary for its cluster.
func clusterSamples(t *testing.T, w *cwf.Workload, cfg Config, res *Result) []metrics.Samples {
	t.Helper()
	router, err := NewRouter(cfg.Route)
	if err != nil {
		t.Fatal(err)
	}
	parts, _ := split(w, cfg.Clusters, cfg.Engine.M, cfg.Affinity, router, nil)
	samples := make([]metrics.Samples, len(parts))
	for c, part := range parts {
		s, err := engine.New(cfg.clusterEngine(c))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(part); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		r, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Summary, res.Clusters[c].Result.Summary) {
			t.Fatalf("cluster %d replay diverged from the dispatched run", c)
		}
		samples[c] = s.Samples()
	}
	return samples
}

// busyArea integrates a busy step function over [t0, t1] step by step, in
// order: each step holds until the next one, the last until t1.
func busyArea(steps []metrics.BusyStep, t0, t1 int64) float64 {
	var area float64
	for i, st := range steps {
		end := t1
		if i+1 < len(steps) {
			end = min(end, steps[i+1].T)
		}
		if start := max(st.T, t0); end > start {
			area += float64(st.Busy) * float64(end-start)
		}
	}
	return area
}

// TestSingleClusterMergedIsPassthrough: with one cluster the merged summary
// is the engine summary itself — every field, order statistics and
// MaxQueueDepth included.
func TestSingleClusterMergedIsPassthrough(t *testing.T) {
	w := testWorkload(t, 120, 9)
	res, err := Run(w, Config{
		Clusters:     1,
		Engine:       engine.Config{M: 320, Unit: 32, ProcessECC: true},
		NewScheduler: losFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Merged, res.Clusters[0].Result.Summary) {
		t.Fatalf("merged %+v is not the single cluster's summary %+v",
			res.Merged, res.Clusters[0].Result.Summary)
	}
	if res.Merged.MedianWait == 0 && res.Merged.P95Wait == 0 {
		t.Fatal("single-cluster order statistics missing from passthrough")
	}
}
