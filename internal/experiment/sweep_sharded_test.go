package experiment

import (
	"errors"
	"testing"

	"elastisched/internal/dispatch"
	"elastisched/internal/engine"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

func shardedSweep(route string) *Sweep {
	p := workload.DefaultParams()
	p.N = 80
	p.TargetLoad = 0.8
	return &Sweep{
		ID: "sharded-tiny", Title: "sharded", XLabel: "Load",
		Algorithms: algos("EASY", "Delayed-LOS"),
		Points:     []Point{{X: 0.8, Params: p, Cs: 7, Clusters: 2, Route: route}},
		Seeds:      []int64{1, 2},
	}
}

// TestSweepShardedPoint: a point with Clusters > 1 runs on the sharded
// dispatcher and the cell carries the merged global summary — pinned by
// replaying the same (workload, algorithm) directly through dispatch.Run.
func TestSweepShardedPoint(t *testing.T) {
	s := shardedSweep(dispatch.RouteLeastWork)
	r, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	params := s.Points[0].Params
	params.Seed = s.Seeds[0]
	w, err := workload.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	a := MustByName("EASY")
	ref, err := dispatch.Run(w, dispatch.Config{
		Clusters: 2,
		Route:    dispatch.RouteLeastWork,
		Engine: engine.Config{
			M: params.M, Unit: params.Unit,
			ProcessECC: a.ECC, MaxECCPerJob: params.MaxECCPerJob,
		},
		NewScheduler: func() sched.Scheduler { return a.New(s.Points[0]) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Cells[0][0].PerSeed[0]; got != ref.Merged {
		t.Fatalf("sweep cell summary %+v != direct dispatch merge %+v", got, ref.Merged)
	}
	if r.Cells[0][0].Summary.Utilization <= 0 {
		t.Fatal("sharded cell summary empty")
	}
}

// TestSweepShardedDeterministicAcrossWorkers: sharded points keep the
// sweep's worker-count independence.
func TestSweepShardedDeterministicAcrossWorkers(t *testing.T) {
	r1, err := shardedSweep(dispatch.RouteBestFit).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := shardedSweep(dispatch.RouteBestFit).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for ai := range r1.Cells {
		for pi := range r1.Cells[ai] {
			if r1.Cells[ai][pi].Summary != r4.Cells[ai][pi].Summary {
				t.Fatalf("sharded cell (%d,%d) differs across worker counts", ai, pi)
			}
		}
	}
}

// TestSweepRouteValidation: a Route on a non-sharded point and an unknown
// policy name both fail before any workload is generated, with the
// dispatcher's typed errors.
func TestSweepRouteValidation(t *testing.T) {
	s := shardedSweep(dispatch.RouteLeastWork)
	s.Points[0].Clusters = 1
	if _, err := s.Run(1); !errors.Is(err, dispatch.ErrNeedsClusters) {
		t.Fatalf("Route without Clusters: got %v, want errors.Is(err, ErrNeedsClusters)", err)
	}
	s = shardedSweep("no-such-policy")
	if _, err := s.Run(1); !errors.Is(err, dispatch.ErrUnknownRoute) {
		t.Fatalf("unknown policy accepted: %v", err)
	}
}
