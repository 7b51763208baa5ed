package experiment

import (
	"errors"
	"math"
	"testing"

	"elastisched/internal/engine"
	"elastisched/internal/fault"
	"elastisched/internal/workload"
)

// TestSweepRejectsBadRobustnessPoint wires the validation into Sweep.Run:
// a malformed point must fail the whole sweep up front with the typed
// error, before any run is attempted.
func TestSweepRejectsBadRobustnessPoint(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 10
	bad := Point{X: 1, Params: p, Cs: 5, Faults: &engine.FaultConfig{MTBF: math.NaN()}}
	sw := &Sweep{
		ID:         "bad-robustness",
		Algorithms: []Algorithm{MustByName("EASY")},
		Points:     []Point{bad},
		Seeds:      []int64{1},
	}
	if _, err := sw.Run(1); !errors.Is(err, fault.ErrNonPositiveMTBF) {
		t.Fatalf("Sweep.Run = %v, want ErrNonPositiveMTBF", err)
	}
}
