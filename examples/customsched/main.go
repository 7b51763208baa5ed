// Custom scheduling policy: implementing the Scheduler interface and
// running it through the same engine, workloads and metrics as the paper's
// algorithms.
//
// The example policy is "WidestFit": each cycle it starts the *largest*
// waiting job that is placeable, repeating until nothing fits — a greedy
// bin-packing heuristic (cf. the largest-job-first discussion in the
// paper's Section II). It has no starvation protection, which the
// comparison against EASY and Delayed-LOS makes visible in the maximum
// waiting time.
//
// Run with:
//
//	go run ./examples/customsched
package main

import (
	"fmt"
	"log"

	es "elastisched"
	"elastisched/internal/job"
	"elastisched/internal/sched"
)

// WidestFit starts the largest placeable job each pass. The engine
// re-invokes Schedule until no cycle makes progress, so one start per pass
// is enough to drain everything that fits.
type WidestFit struct{}

// Name implements the Scheduler interface.
func (WidestFit) Name() string { return "WidestFit" }

// Heterogeneous reports that this policy handles batch jobs only.
func (WidestFit) Heterogeneous() bool { return false }

// Schedule starts the widest placeable waiting job, if any.
func (WidestFit) Schedule(ctx *sched.Context) {
	var best *job.Job
	for _, j := range ctx.Batch.Jobs() {
		if !ctx.Fits(j.Size) {
			continue
		}
		if best == nil || j.Size > best.Size {
			best = j
		}
	}
	if best != nil {
		ctx.Start(best)
	}
}

func main() {
	params := es.DefaultWorkloadParams()
	params.Seed = 9
	params.N = 400
	params.PS = 0.5
	params.TargetLoad = 0.9
	w, err := es.GenerateWorkload(params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %12s %15s %15s %10s\n",
		"policy", "utilization", "mean wait (s)", "max wait (s)", "slowdown")

	// The custom policy through the same engine...
	res, err := es.SimulateWith(w, WidestFit{}, false, es.Options{Config: es.Config{Paranoid: true}})
	if err != nil {
		log.Fatal(err)
	}
	row := func(name string, s es.Summary) {
		fmt.Printf("%-12s %12.4f %15.1f %15.0f %10.3f\n",
			name, s.Utilization, s.MeanWait, s.MaxWait, s.Slowdown)
	}
	row("WidestFit", res.Summary)

	// ...against two built-ins on the identical workload.
	for _, name := range []string{"EASY", "Delayed-LOS"} {
		r, err := es.Simulate(w, name, es.Options{Cs: 7})
		if err != nil {
			log.Fatal(err)
		}
		row(name, r.Summary)
	}

	fmt.Println("\nWidestFit packs greedily but lets narrow jobs starve behind wide")
	fmt.Println("ones (compare the max wait); EASY bounds the head job's wait with a")
	fmt.Println("reservation, and Delayed-LOS additionally packs with Basic_DP.")
}
