// Heterogeneous workloads: the paper's motivating scenario (Section I-B).
//
// A research cluster runs background simulation campaigns as flexible batch
// jobs, while a traffic-analysis group holds rigid, reserved-capacity slots
// for real-time sensor data processing at fixed hours of the day. One
// scheduler must serve both: batch jobs packed for utilization, dedicated
// jobs triggered exactly at their requested start times.
//
// The example builds that day programmatically, runs Hybrid-LOS against the
// EASY-D and LOS-D baselines, and reports how well each protects the rigid
// slots while keeping the batch queue moving.
//
// Run with:
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"math/rand"

	es "elastisched"
)

const (
	machine = 320
	hour    = 3600
)

func main() {
	r := rand.New(rand.NewSource(7))
	var jobs []es.JobSpec
	id := 0

	// Background simulation campaigns: ~40 batch jobs across the day,
	// mixed sizes, one to three hours long (offered load around 0.8).
	for i := 0; i < 40; i++ {
		id++
		size := 32 * (1 + r.Intn(4)) // 32..128 processors
		jobs = append(jobs, es.JobSpec{
			ID:             id,
			Size:           size,
			Duration:       int64(hour + r.Intn(2*hour)),
			Arrival:        int64(r.Intn(20 * hour)),
			RequestedStart: -1,
		})
	}

	// Rigid real-time windows: 96 processors for one hour, every three
	// hours starting 06:00 — reserved a few hours in advance.
	for h := 6; h <= 21; h += 3 {
		id++
		start := int64(h * hour)
		jobs = append(jobs, es.JobSpec{
			ID:             id,
			Size:           96,
			Duration:       hour,
			Arrival:        start - 4*hour,
			RequestedStart: start,
		})
	}

	w, err := es.BuildWorkload(jobs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day plan: %d batch jobs + %d rigid slots on %d processors (offered load %.2f)\n\n",
		40, 6, machine, w.Load(machine))

	fmt.Printf("%-12s %12s %15s %18s %15s\n",
		"algorithm", "utilization", "batch wait (s)", "rigid delay (s)", "slots on time")
	for _, algo := range []string{"EASY-D", "LOS-D", "Hybrid-LOS"} {
		res, err := es.Simulate(w, algo, es.Options{Config: es.Config{M: machine, Unit: 32}, Cs: 7})
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary
		fmt.Printf("%-12s %12.4f %15.1f %18.1f %14.0f%%\n",
			algo, s.Utilization, s.MeanBatchWait, s.MeanDedWait, 100*s.DedicatedOnTime)
	}

	fmt.Println("\nHybrid-LOS makes explicit reservations (freeze end time/capacity)")
	fmt.Println("for each upcoming rigid slot and packs batch jobs around them with")
	fmt.Println("Reservation_DP (paper Algorithm 2). Its one deliberate exception —")
	fmt.Println("a batch head that exhausted its C_s skips starts immediately, even")
	fmt.Println("into a freeze (Algorithm 2, lines 35-37) — trades an occasional")
	fmt.Println("rigid-slot delay for the utilization gain visible above.")
}
