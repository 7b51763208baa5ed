package experiment

import (
	"reflect"
	"testing"

	"elastisched/internal/engine"
	"elastisched/internal/fault"
	"elastisched/internal/workload"
)

// parallelSweep is a 2-algorithm x 3-point x 3-seed panel: large enough
// that run-level tasks interleave across workers, small enough for a unit
// test.
func parallelSweep() *Sweep {
	p := workload.DefaultParams()
	p.N = 60
	point := func(load float64) Point {
		q := p
		q.TargetLoad = load
		return Point{X: load, Params: q, Cs: 7}
	}
	return &Sweep{
		ID: "par", Title: "par", XLabel: "Load",
		Algorithms: algos("EASY", "Delayed-LOS"),
		Points:     []Point{point(0.7), point(0.8), point(0.9)},
		Seeds:      []int64{1, 2, 3},
	}
}

// mixedSweep is a panel whose points differ in everything a reused
// session may carry from one run into the next: machine geometry,
// contiguous placement with and without migration, fault injection with
// checkpoints, and malleability, under policies with and without ECC
// processing and resize proposals.
func mixedSweep() *Sweep {
	p := workload.DefaultParams()
	p.N = 60
	p.TargetLoad = 0.9
	p.PE, p.PR = 0.2, 0.1
	small := p
	small.M, small.Unit = 128, 16
	malleable := p
	malleable.PM = 0.7
	faults := &engine.FaultConfig{
		MTBF: 30000, MTTR: 2000, CheckpointCost: 300,
		Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 900,
		Retry: fault.RetryPolicy{Mode: fault.Requeue, Restart: fault.RemainingRuntime, Backoff: 20},
	}
	return &Sweep{
		ID: "mixed", Title: "mixed", XLabel: "Case",
		Algorithms: algos("EASY-E-M", "Delayed-LOS-M", "CONS"),
		Points: []Point{
			{X: 1, Params: p, Cs: 7},
			{X: 2, Params: small, Cs: 7, Engine: engine.Config{Contiguous: true}},
			{X: 3, Params: p, Cs: 7, Engine: engine.Config{Contiguous: true, Migrate: true, Faults: faults}},
			{X: 4, Params: malleable, Cs: 7, Engine: engine.Config{Malleable: true, ResizeOverhead: 5, Faults: faults}},
			{X: 5, Params: small, Cs: 7, Engine: engine.Config{Faults: faults}},
		},
		Seeds: []int64{1, 2},
	}
}

// TestSweepDeepEqualAcrossWorkerCounts requires the full Result — every
// per-seed summary, ECC tally, realized load, and event count — to be
// identical at every worker count, on two panels. Each worker resets one
// session for all its runs, so a worker count decides which runs follow
// which on a session; every per-seed summary must also match a run on a
// new session.
func TestSweepDeepEqualAcrossWorkerCounts(t *testing.T) {
	for _, panel := range []func() *Sweep{parallelSweep, mixedSweep} {
		r1, err := panel().Run(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			rn, err := panel().Run(workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1.Cells, rn.Cells) {
				t.Fatalf("%s: sweep cells differ between Run(1) and Run(%d)", r1.Sweep.ID, workers)
			}
			if r1.WorkloadsGenerated != rn.WorkloadsGenerated || r1.WorkloadsReused != rn.WorkloadsReused {
				t.Fatalf("%s: cache counters differ: serial %d/%d, %d workers %d/%d", r1.Sweep.ID,
					r1.WorkloadsGenerated, r1.WorkloadsReused, workers, rn.WorkloadsGenerated, rn.WorkloadsReused)
			}
		}
		s := r1.Sweep
		for ai, a := range s.Algorithms {
			for pi, pt := range s.Points {
				for si, seed := range s.Seeds {
					params := pt.Params
					params.Seed = seed
					w, err := workload.Generate(params)
					if err != nil {
						t.Fatal(err)
					}
					cfg := s.runConfig(pi, a, seed)
					cfg.Scheduler = a.New(pt)
					want, err := engine.Run(w, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := r1.Cells[ai][pi].PerSeed[si]; !reflect.DeepEqual(got, want.Summary) {
						t.Fatalf("%s/%s/x=%g/seed %d: reused session %+v, new session %+v",
							s.ID, a.Name, pt.X, seed, got, want.Summary)
					}
				}
			}
		}
	}
}

// TestWorkloadCacheCounters verifies the cache contract: Generate runs once
// per (point, seed) and every other algorithm's run is a hit.
func TestWorkloadCacheCounters(t *testing.T) {
	for _, workers := range []int{1, 8} {
		s := parallelSweep()
		r, err := s.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		nRuns := len(s.Algorithms) * len(s.Points) * len(s.Seeds)
		wantGen := len(s.Points) * len(s.Seeds)
		if r.WorkloadsGenerated != wantGen {
			t.Errorf("workers=%d: generated %d workloads, want %d", workers, r.WorkloadsGenerated, wantGen)
		}
		if r.WorkloadsReused != nRuns-wantGen {
			t.Errorf("workers=%d: reused %d workloads, want %d", workers, r.WorkloadsReused, nRuns-wantGen)
		}
	}
}

// TestWorkloadCacheConcurrentFirstUse hammers the cache's first-use path:
// many algorithms race for the same (point, seed) entries. Run under
// -race in CI.
func TestWorkloadCacheConcurrentFirstUse(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 30
	s := &Sweep{
		ID: "race", Title: "race", XLabel: "Load",
		Algorithms: algos("FCFS", "EASY", "LOS", "Delayed-LOS"),
		Points:     []Point{{X: 0.8, Params: p, Cs: 7}},
		Seeds:      []int64{1, 2},
	}
	r, err := s.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.WorkloadsGenerated != 2 {
		t.Errorf("generated %d workloads, want 2", r.WorkloadsGenerated)
	}
	if r.WorkloadsReused != 6 {
		t.Errorf("reused %d workloads, want 6", r.WorkloadsReused)
	}
}

// TestSweepErrorIsDeterministic makes a mid-sweep point fail generation and
// checks the error surfaces identically at every worker count.
func TestSweepErrorIsDeterministic(t *testing.T) {
	s := parallelSweep()
	bad := s.Points[1]
	bad.Params.M = -1
	s.Points[1] = bad
	var msgs []string
	for _, workers := range []int{1, 4} {
		_, err := s.Run(workers)
		if err == nil {
			t.Fatalf("workers=%d: invalid point accepted", workers)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error differs across worker counts:\n  %s\n  %s", msgs[0], msgs[1])
	}
}
