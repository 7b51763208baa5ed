// Trace replay: loading a Standard Workload Format archive log and varying
// its load by arrival-time scaling — the technique of the paper's Figure 1
// (and of the LOS paper it builds on).
//
// Archive logs are not redistributable here, so the example first writes an
// SDSC-like log with the Lublin generator, then treats that file exactly as
// a downloaded archive trace: parse SWF, scale arrivals for each target
// load, replay under EASY and LOS.
//
// Run with:
//
//	go run ./examples/tracereplay
package main

import (
	"bytes"
	"fmt"
	"log"

	es "elastisched"
	"elastisched/internal/swf"
	"elastisched/internal/workload"
)

func main() {
	// Fabricate the "archive log" (stand-in for SDSC SP2).
	params := workload.SDSCLike()
	params.Seed = 3
	params.N = 400
	params.TargetLoad = 0.95 // the log's native load before scaling
	gen, err := workload.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	var logBuf bytes.Buffer
	if err := es.WriteCWF(&logBuf, gen); err != nil {
		log.Fatal(err)
	}
	raw := logBuf.Bytes()

	fmt.Println("replaying SDSC-like log on 128 processors (EASY vs LOS)")
	fmt.Printf("%-8s %14s %14s %16s %16s\n", "load", "EASY util", "LOS util", "EASY wait (s)", "LOS wait (s)")

	for _, target := range []float64{0.5, 0.65, 0.8, 0.95} {
		// Parse the log afresh and stretch inter-arrival gaps: scaling
		// submit times by nativeLoad/targetLoad lowers the offered load to
		// the target without touching job sizes or runtimes.
		parsed, err := swf.Parse(bytes.NewReader(raw))
		if err != nil {
			log.Fatal(err)
		}
		swf.ScaleArrivals(parsed, 0.95/target)
		w, err := es.ParseSWF(bytes.NewReader(render(parsed)))
		if err != nil {
			log.Fatal(err)
		}

		var row [4]float64
		for i, algo := range []string{"EASY", "LOS"} {
			res, err := es.Simulate(w, algo, es.Options{Config: es.Config{M: 128, Unit: 1}})
			if err != nil {
				log.Fatal(err)
			}
			row[i] = res.Summary.Utilization
			row[2+i] = res.Summary.MeanWait
		}
		fmt.Printf("%-8.2f %14.4f %14.4f %16.1f %16.1f\n", target, row[0], row[1], row[2], row[3])
	}
	fmt.Println("\nOn archive-like traces LOS packs at least as well as EASY — the")
	fmt.Println("regime the LOS paper reported. The paper's claim is that this")
	fmt.Println("ordering breaks when job sizes vary (compare expsuite -exp fig7).")
}

// render writes a parsed SWF log back to bytes.
func render(l *swf.Log) []byte {
	var buf bytes.Buffer
	if err := swf.Write(&buf, l); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}
