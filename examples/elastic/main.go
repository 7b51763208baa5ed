// Runtime elasticity: Elastic Control Commands (paper Section III-C).
//
// A user submits a long parameter sweep, then realizes mid-run that it needs
// three more hours (ET); another cancels most of a reservation early (RT).
// The example shows (1) commands applied to both queued and running jobs,
// (2) the CWF round-trip that carries them, and (3) the aggregate effect of
// elasticity on the -E scheduler family under the paper's P_E/P_R mix.
//
// Run with:
//
//	go run ./examples/elastic
package main

import (
	"bytes"
	"fmt"
	"log"

	es "elastisched"
)

const hour = 3600

func main() {
	// --- Part 1: a hand-built elastic scenario -------------------------
	jobs := []es.JobSpec{
		{ID: 1, Size: 160, Duration: 6 * hour, Arrival: 0, RequestedStart: -1},
		{ID: 2, Size: 160, Duration: 4 * hour, Arrival: 10, RequestedStart: -1},
		{ID: 3, Size: 320, Duration: 2 * hour, Arrival: 20, RequestedStart: -1},
	}
	cmds := []es.CommandSpec{
		// Job 1, already running, asks for three more hours.
		{JobID: 1, Issue: 2 * hour, Type: "ET", Amount: 3 * hour},
		// Job 2, running next to it, releases three of its four hours.
		{JobID: 2, Issue: 1 * hour, Type: "RT", Amount: 3 * hour},
		// Job 3, still queued behind both, trims its own estimate.
		{JobID: 3, Issue: 30 * 60, Type: "RT", Amount: 1 * hour},
	}
	w, err := es.BuildWorkload(jobs, cmds)
	if err != nil {
		log.Fatal(err)
	}

	// CWF round-trip: the commands travel in the trace itself (fields
	// 19-21 of the Cloud Workload Format).
	var buf bytes.Buffer
	if err := es.WriteCWF(&buf, w); err != nil {
		log.Fatal(err)
	}
	fmt.Println("CWF trace with embedded ECCs:")
	fmt.Println(buf.String())
	w2, err := es.ParseCWF(&buf)
	if err != nil {
		log.Fatal(err)
	}

	res, err := es.Simulate(w2, "Delayed-LOS-E", es.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Delayed-LOS-E: %v\n", res.Summary)
	fmt.Printf("ECCs: %d applied (%d clamped), +%ds extended, -%ds reduced\n\n",
		res.ECC.Applied, res.ECC.Clamped, res.ECC.ExtendedSeconds, res.ECC.ReducedSeconds)

	// --- Part 2: elasticity at scale (paper Figure 11 regime) ----------
	params := es.DefaultWorkloadParams()
	params.Seed = 11
	params.N = 500
	params.PS = 0.5
	params.PE = 0.2 // paper's extension probability
	params.PR = 0.1 // paper's reduction probability
	params.TargetLoad = 0.9
	big, err := es.GenerateWorkload(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic elastic workload: %d jobs, %d ECCs\n\n", len(big.Jobs), len(big.Commands))
	fmt.Printf("%-16s %12s %16s %10s\n", "algorithm", "utilization", "mean wait (s)", "slowdown")
	for _, algo := range []string{"EASY-E", "LOS-E", "Delayed-LOS-E"} {
		res, err := es.Simulate(big, algo, es.Options{Cs: 7})
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary
		fmt.Printf("%-16s %12.4f %16.1f %10.3f\n", algo, s.Utilization, s.MeanWait, s.Slowdown)
	}
	fmt.Println("\nAll three process the same command stream; the LOS-family packing")
	fmt.Println("reacts to the changed residual times at the next scheduling event.")

	// --- Part 3: true malleability — scheduler-initiated shrink/expand --
	// ET/RT/EP/RP above are CLIENT-initiated. With Config.Malleable the
	// SCHEDULER becomes an initiator too: jobs submitted with processor
	// bounds may be shrunk at runtime to admit a blocked queue head and
	// grown back when capacity idles, with the remaining work held
	// invariant (a shrink stretches the remaining runtime, a grow
	// compresses it, plus a per-resize reconfiguration charge).
	//
	// Two bounded 160-proc jobs fill the machine; a rigid 320-proc job
	// arrives an hour in. Rigidly it waits ~5 hours for both to drain.
	// Malleably, EASY-M shrinks each runner to 32 procs, admits the wide
	// job immediately, and re-expands the survivors when it leaves.
	jobs3 := []es.JobSpec{
		{ID: 1, Size: 160, Duration: 6 * hour, Arrival: 0, RequestedStart: -1, MinProcs: 32, MaxProcs: 320},
		{ID: 2, Size: 160, Duration: 5 * hour, Arrival: 0, RequestedStart: -1, MinProcs: 32, MaxProcs: 160},
		{ID: 3, Size: 256, Duration: 1 * hour, Arrival: 1 * hour, RequestedStart: -1},
	}
	w3, err := es.BuildWorkload(jobs3, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nscheduler-initiated malleability (same workload, same -M policy):")
	fmt.Printf("%-18s %14s %10s %16s %12s\n", "mode", "mean wait (s)", "resizes", "ceded proc-s", "reconfig s")
	for _, mode := range []struct {
		name string
		opt  es.Options
	}{
		// With Malleable off the bounds are inert annotations and the -M
		// decorator proposes nothing: byte-identical to rigid EASY.
		{"rigid (off)", es.Options{}},
		{"malleable", es.Options{Config: es.Config{Malleable: true, ResizeOverhead: 120}}},
	} {
		res, err := es.Simulate(w3, "EASY-M", mode.opt)
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary
		fmt.Printf("%-18s %14.1f %10d %16.0f %12.0f\n",
			mode.name, s.MeanWait, s.SchedulerResizes, s.ShrunkProcSeconds, s.ReconfigOverheadSeconds)
	}
	fmt.Println("\nThe shrink-to-admit rule trades the runners' width for the head's")
	fmt.Println("wait; expand-when-idle returns the width once the head departs.")
}
