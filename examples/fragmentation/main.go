// Fragmentation and migration: the BlueGene-style partitioning discussion
// of the paper's Section II (Krevat et al.).
//
// The paper's schedulers treat the machine as a capacity counter. Real
// torus machines require contiguous partitions, so freed capacity can be
// scattered into runs too short for the next job — fragmentation — and
// migration (compacting running jobs) recovers it. This example runs the
// same workload three ways and renders the contiguous schedule's Gantt
// chart so the holes are visible.
//
// Run with:
//
//	go run ./examples/fragmentation
package main

import (
	"fmt"
	"log"

	es "elastisched"
)

func main() {
	params := es.DefaultWorkloadParams()
	params.Seed = 5
	params.N = 300
	params.PS = 0.5
	params.TargetLoad = 0.9
	w, err := es.GenerateWorkload(params)
	if err != nil {
		log.Fatal(err)
	}

	type mode struct {
		name                string
		contiguous, migrate bool
	}
	modes := []mode{
		{"scatter (paper's model)", false, false},
		{"contiguous partitions", true, false},
		{"contiguous + migration", true, true},
	}
	fmt.Printf("EASY on the same 300-job workload, offered load %.2f\n\n", w.Load(320))
	fmt.Printf("%-26s %12s %15s %16s %12s\n",
		"allocation mode", "utilization", "mean wait (s)", "peak waste (cpu)", "migrations")
	for _, m := range modes {
		res, err := es.Simulate(w, "EASY", es.Options{Config: es.Config{
			Contiguous: m.contiguous, Migrate: m.migrate,
		}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %12.4f %15.1f %16d %12d\n",
			m.name, res.Summary.Utilization, res.Summary.MeanWait,
			res.PeakFragmentedWaste, res.Migrations)
	}

	fmt.Println("\nFragmentation inflates waiting time although total free capacity")
	fmt.Println("is unchanged; compaction recovers the capacity-only numbers. The")
	fmt.Println("paper's future-work section (VI) notes that size elasticity on such")
	fmt.Println("machines must maintain exactly this space continuity.")
}
