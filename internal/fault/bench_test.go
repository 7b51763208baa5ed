package fault

import "testing"

// faultsMalleableShape is the fault model of elastibench's
// faults-malleable workload: ten node groups of a 320-processor machine
// failing every 40000 s on average and repairing in 2000 s, sampled over
// the horizon of a 2500-job trace. It yields about 6,800 events.
var faultsMalleableShape = GenParams{Groups: 10, MTBF: 40000, MTTR: 2000, Horizon: 14_500_000, Seed: 1}

var sinkTrace *Trace

// BenchmarkGenerate times sampling and ordering one faults-malleable
// trace: the per-group renewal draws and the merge of the ten group runs.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := Generate(faultsMalleableShape)
		if err != nil {
			b.Fatal(err)
		}
		sinkTrace = t
	}
}
