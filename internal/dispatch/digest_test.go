package dispatch

import (
	"fmt"
	"math/rand"
	"testing"

	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/engine"
	"elastisched/internal/experiment"
	"elastisched/internal/job"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

// barrierCheck installs barrierHook for the rest of the test: at every
// barrier it compares each cluster's maintained digest and cached next
// event with a fresh walk and a fresh read of its session, and stops the
// test at the first disagreement (a stale next event can starve a session,
// so the run might never end). It returns the count of barriers checked
// and the last run's full-walk counter.
func barrierCheck(t *testing.T, cell string) (barriers, walks *int) {
	t.Helper()
	barriers, walks = new(int), new(int)
	barrierHook = func(e *epochRun, barrier int64) {
		*barriers++
		*walks = 0
		for _, cc := range e.cached {
			*walks += cc.walks
		}
		for c, s := range e.sessions {
			if want, _ := digestSession(c, s, barrier); e.digests[c] != want {
				t.Fatalf("%s barrier %d cluster %d: maintained digest %+v, fresh %+v", cell, barrier, c, e.digests[c], want)
			}
			if got, want := e.cached[c].next, nextEvent(s); got != want {
				t.Fatalf("%s barrier %d cluster %d: cached next event %d, fresh %d", cell, barrier, c, got, want)
			}
		}
	}
	t.Cleanup(func() { barrierHook = nil })
	return barriers, walks
}

// digestWorkload is shaped after the behaviour lock's dispatch trace: batch
// and dedicated jobs with an ECC command stream, and heavy-tailed runtimes
// so clusters back up while others idle.
func digestWorkload(t *testing.T, n int) *cwf.Workload {
	t.Helper()
	p := workload.DefaultParams()
	p.N, p.Seed, p.TargetLoad = n, 31, 0.5
	p.PD, p.PE, p.PR = 0.1, 0.2, 0.1
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	z := rand.NewZipf(rng, 2.0, 1, 200)
	for _, j := range w.Jobs {
		j.Dur *= int64(1 + z.Uint64())
	}
	return w
}

// TestMaintainedDigestsMatchFresh is the differential check of the
// dirty-cluster digests: over every route, stealing on and off, 2, 8 and
// 64 clusters and 1 and 4 workers, under the lock's faults + ECC engine,
// the digest and next event the barrier keeps for every cluster equal a
// fresh walk and read at every barrier. The epochs are fine enough that
// commands and steals often reach a cluster nothing else touches in the
// window.
func TestMaintainedDigestsMatchFresh(t *testing.T) {
	w := digestWorkload(t, 640)
	a := experiment.MustByName("LOS-DE")
	for _, clusters := range []int{2, 8, 64} {
		for _, route := range Policies() {
			for _, steal := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					cell := fmt.Sprintf("clusters=%d/route=%s/steal=%t/workers=%d", clusters, route, steal, workers)
					barriers, _ := barrierCheck(t, cell)
					res, err := Run(w, Config{
						Clusters: clusters, Workers: workers,
						Engine: engine.Config{M: 320, Unit: 32, ProcessECC: true,
							Faults: &engine.FaultConfig{MTBF: 60000, MTTR: 2000, Seed: 5}},
						NewScheduler: func() sched.Scheduler { return a.New(experiment.Point{Cs: 5}) },
						Route:        route, Epoch: spanEpoch(w, 2000), Steal: steal,
					})
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					if *barriers != res.Epochs {
						t.Fatalf("%s: checked %d barriers of %d", cell, *barriers, res.Epochs)
					}
					if released := steal || route == RouteFeedback; released && res.Epochs == 0 {
						t.Fatalf("%s: no barrier ran; the cell checks nothing", cell)
					}
				}
			}
		}
	}
}

// TestDigestWalksScaleWithTouchedClusters runs BenchmarkShardedSteal64's
// shape under the differential check and bounds the full digest walks: a
// barrier walks only the clusters touched since the last one, far fewer
// than all 64.
func TestDigestWalksScaleWithTouchedClusters(t *testing.T) {
	const clusters = 64
	w := skewedWorkload(t, clusters)
	barriers, walks := barrierCheck(t, "steal64")
	res, err := Run(w, Config{
		Clusters:     clusters,
		Route:        RouteRoundRobin,
		Engine:       engine.Config{M: 320, Unit: 32},
		NewScheduler: func() sched.Scheduler { return core.NewLOS(true) },
		Epoch:        spanEpoch(w, 5000),
		Steal:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if *barriers != res.Epochs || res.Steals == 0 {
		t.Fatalf("checked %d barriers of %d, %d steals; the cell checks nothing", *barriers, res.Epochs, res.Steals)
	}
	all := res.Epochs * clusters
	t.Logf("%d barriers, %d steals: %d full digest walks of %d", res.Epochs, res.Steals, *walks, all)
	if *walks > all/10 {
		t.Errorf("%d full digest walks, want at most %d (a tenth of %d barriers × %d clusters)", *walks, all/10, res.Epochs, clusters)
	}
}

// TestUntouchedDigestFallsBackToWalk: an untouched cluster's digest is
// re-derived from its last walk only while every running job ends after
// the barrier. At a barrier past a running job's EndTime — which a run
// never asks for without stepping the session — the refresh must walk
// rather than let the job's residual go negative.
func TestUntouchedDigestFallsBackToWalk(t *testing.T) {
	s, err := engine.New(engine.Config{M: 320, Unit: 32, Scheduler: core.NewLOS(true)})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range []int64{100, 400} {
		if err := s.Inject(&job.Job{ID: i + 1, Class: job.Batch, Size: 64, Dur: d}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if s.Running() != 2 {
		t.Fatalf("%d jobs running, want 2", s.Running())
	}
	e := &epochRun{sessions: []*engine.Session{s}, digests: make([]Digest, 1), cached: make([]clusterCache, 1)}
	e.touch(0)
	e.refreshDigests(50)
	for _, barrier := range []int64{60, 250, 500} {
		e.refreshDigests(barrier)
		if want, _ := digestSession(0, s, barrier); e.digests[0] != want {
			t.Errorf("barrier %d: refreshed digest %+v, fresh %+v", barrier, e.digests[0], want)
		}
	}
	if e.cached[0].walks != 3 {
		t.Errorf("%d full walks, want 3: the first, then one per barrier past a job's EndTime", e.cached[0].walks)
	}
}
