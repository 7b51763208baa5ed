package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smoke is the reduced-size measurement the tests run: minPasses timed
// passes of each workload's small inputs.
func smoke(t *testing.T, d workloadDef, traced bool, want string) *report {
	t.Helper()
	rep, err := measure(d, options{seed: defaultSeed, seconds: 1, small: true, traced: traced, want: want})
	if err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	return rep
}

// TestSmokeEveryWorkload runs every workload at reduced size, untraced and
// traced: every run is verified, every metric is reported, and the traced
// passes reproduce the untraced digest (settle fails any pass that does
// not), so the decorators change no decision.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, d := range workloads {
		t.Run(d.name, func(t *testing.T) {
			untraced := smoke(t, d, false, "")
			traced := smoke(t, d, true, "")
			for _, rep := range []*report{untraced, traced} {
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d runs failed: %v", rep.opt.traced, rep.failed, rep.attempted, rep.failures)
				}
			}
			if untraced.digest != traced.digest {
				t.Errorf("traced digest %s, untraced %s", traced.digest, untraced.digest)
			}
			res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
			untraced.addTo(&res, "")
			for _, m := range endToEnd {
				if v := res.Metrics[m.name]; !(v.Value > 0) || v.Unit != m.unit {
					t.Errorf("%s = %+v, want a positive value in %s", m.name, v, m.unit)
				}
			}
			res.Metrics = map[string]jsonMetric{}
			traced.addTo(&res, "")
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if v := res.Metrics["sched.cycles"].Value; !(v > 0) {
				t.Errorf("sched.cycles = %g: the decorators saw no scheduler cycle", v)
			}
		})
	}
}

// TestCorruptedGoldenFailsEveryRun proves the digest check can fail: a
// golden digest no run reproduces fails every run, verify phase included.
func TestCorruptedGoldenFailsEveryRun(t *testing.T) {
	d, err := workloadByName("sharded-static")
	if err != nil {
		t.Fatal(err)
	}
	rep := smoke(t, d, false, strings.Repeat("0", 64))
	if rep.attempted == 0 || rep.failed != rep.attempted {
		t.Fatalf("%d of %d runs failed, want all", rep.failed, rep.attempted)
	}
	res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	rep.addTo(&res, "")
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("result %+v, want incorrect with every run failed", res)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics and
// workloads the program reports in step.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this checkout:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-seed", "2", "-write-golden", "g.json"},
		{"extra"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and no result", args, code, out.String())
		}
	}
}
