package elastisched_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	es "elastisched"
	"elastisched/internal/engine"
	"elastisched/internal/experiment"
	"elastisched/internal/workload"
)

func smallWorkload(t *testing.T, mut func(*es.WorkloadParams)) *es.Workload {
	t.Helper()
	p := es.DefaultWorkloadParams()
	p.N = 100
	p.TargetLoad = 0.85
	if mut != nil {
		mut(&p)
	}
	w, err := es.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSimulateEveryAlgorithm(t *testing.T) {
	batch := smallWorkload(t, nil)
	hetero := smallWorkload(t, func(p *es.WorkloadParams) { p.PD = 0.4 })
	elastic := smallWorkload(t, func(p *es.WorkloadParams) { p.PE = 0.2; p.PR = 0.1 })
	heteroElastic := smallWorkload(t, func(p *es.WorkloadParams) { p.PD = 0.4; p.PE = 0.2; p.PR = 0.1 })

	for _, name := range es.AlgorithmNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, _, err := es.NewScheduler(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			w := batch
			if s.Heterogeneous() {
				w = hetero
				if strings.HasSuffix(name, "E") && strings.Contains(name, "-") {
					w = heteroElastic
				}
			} else if strings.HasSuffix(name, "-E") {
				w = elastic
			}
			res, err := es.Simulate(w, name, es.Options{Config: es.Config{Paranoid: true}, Cs: 7})
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.JobsFinished != 100 {
				t.Fatalf("finished %d/100", res.Summary.JobsFinished)
			}
		})
	}
}

func TestSimulateUnknownAlgorithm(t *testing.T) {
	if _, err := es.Simulate(smallWorkload(t, nil), "NOPE", es.Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSimulateDefaultsGeometry(t *testing.T) {
	res, err := es.Simulate(smallWorkload(t, nil), "EASY", es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MachineSize != 320 {
		t.Errorf("default machine %d, want 320", res.Summary.MachineSize)
	}
}

func TestBuildWorkload(t *testing.T) {
	w, err := es.BuildWorkload([]es.JobSpec{
		{ID: 1, Size: 64, Duration: 100, Arrival: 0, RequestedStart: -1},
		{ID: 2, Size: 96, Duration: 50, Arrival: 10, RequestedStart: 200},
	}, []es.CommandSpec{
		{JobID: 1, Issue: 20, Type: "ET", Amount: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.NumBatch() != 1 || w.NumDedicated() != 1 || len(w.Commands) != 1 {
		t.Fatalf("built workload wrong: %d batch, %d ded, %d cmds",
			w.NumBatch(), w.NumDedicated(), len(w.Commands))
	}
	res, err := es.Simulate(w, "Hybrid-LOS-E", es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.JobsFinished != 2 || res.ECC.Applied != 1 {
		t.Errorf("result wrong: %+v", res.Summary)
	}
}

func TestBuildWorkloadBadCommandType(t *testing.T) {
	_, err := es.BuildWorkload(
		[]es.JobSpec{{ID: 1, Size: 64, Duration: 100, RequestedStart: -1}},
		[]es.CommandSpec{{JobID: 1, Issue: 5, Type: "ZZ", Amount: 1}},
	)
	if err == nil {
		t.Fatal("bad command type accepted")
	}
}

func TestCWFRoundTripThroughFacade(t *testing.T) {
	w := smallWorkload(t, func(p *es.WorkloadParams) { p.PD = 0.3; p.PE = 0.2; p.PR = 0.1 })
	var buf bytes.Buffer
	if err := es.WriteCWF(&buf, w); err != nil {
		t.Fatal(err)
	}
	w2, err := es.ParseCWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := es.Simulate(w, "Hybrid-LOS-E", es.Options{Cs: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := es.Simulate(w2, "Hybrid-LOS-E", es.Options{Cs: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Summary != r2.Summary {
		t.Fatal("round-tripped workload simulates differently")
	}
}

func TestParseSWFFacade(t *testing.T) {
	swf := `; header
1 0 -1 100 64 -1 -1 64 100 -1 1 -1 -1 -1 -1 -1 -1 -1
2 10 -1 50 32 -1 -1 32 50 -1 1 -1 -1 -1 -1 -1 -1 -1
`
	w, err := es.ParseSWF(strings.NewReader(swf))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 2 {
		t.Fatalf("parsed %d jobs", len(w.Jobs))
	}
	res, err := es.Simulate(w, "LOS", es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.JobsFinished != 2 {
		t.Error("SWF replay incomplete")
	}
}

func TestNewSchedulerECCFlag(t *testing.T) {
	_, ecc, err := es.NewScheduler("Delayed-LOS-E", 7)
	if err != nil || !ecc {
		t.Error("Delayed-LOS-E should carry the ECC flag")
	}
	_, ecc, err = es.NewScheduler("Delayed-LOS", 7)
	if err != nil || ecc {
		t.Error("Delayed-LOS should not carry the ECC flag")
	}
}

func TestConstructorsDirect(t *testing.T) {
	if es.NewDelayedLOS(7).Name() != "Delayed-LOS" {
		t.Error("NewDelayedLOS wrong")
	}
	if es.NewHybridLOS(7).Name() != "Hybrid-LOS" {
		t.Error("NewHybridLOS wrong")
	}
}

func TestExperimentsExposed(t *testing.T) {
	if len(es.Experiments()) < 12 {
		t.Error("experiment suite incomplete")
	}
	if _, err := es.ExperimentByID("table4"); err != nil {
		t.Error(err)
	}
}

func TestSDSCLikeParams(t *testing.T) {
	p := es.SDSCLikeParams()
	if p.M != 128 || p.Unit != 1 {
		t.Errorf("SDSC params wrong: M=%d unit=%d", p.M, p.Unit)
	}
}

func TestCalibrateCsFacade(t *testing.T) {
	p := es.DefaultWorkloadParams()
	p.N = 60
	p.PS = 0.2
	p.TargetLoad = 0.9
	best, err := es.CalibrateCs(p, 4, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if best < 1 || best > 4 {
		t.Errorf("calibrated C_s = %d", best)
	}
}

func TestSimulateContiguousOptions(t *testing.T) {
	w := smallWorkload(t, nil)
	frag, err := es.Simulate(w, "EASY", es.Options{Config: es.Config{Contiguous: true}})
	if err != nil {
		t.Fatal(err)
	}
	mig, err := es.Simulate(w, "EASY", es.Options{Config: es.Config{Contiguous: true, Migrate: true}})
	if err != nil {
		t.Fatal(err)
	}
	scatter, err := es.Simulate(w, "EASY", es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if frag.Summary.MeanWait < scatter.Summary.MeanWait {
		t.Error("fragmented run waits less than scatter")
	}
	if mig.Summary.MeanWait > frag.Summary.MeanWait {
		t.Error("migration did not help")
	}
}

func TestSimulateWithTrace(t *testing.T) {
	w := smallWorkload(t, nil)
	rec := es.NewTrace(320, 32)
	res, err := es.Simulate(w, "Delayed-LOS", es.Options{Config: es.Config{Observer: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans()) != res.Summary.JobsFinished {
		t.Errorf("trace has %d spans, summary says %d jobs", len(rec.Spans()), res.Summary.JobsFinished)
	}
	if rec.ASCII(60) == "" || rec.SVG(400, 200) == "" {
		t.Error("trace rendering empty")
	}
}

// TestSimulateSharded exercises the scale-out facade: a 4-cluster run
// completes every job, defaults geometry per cluster, reports the global
// machine, and rejects a Trace (no deterministic merged schedule exists).
func TestSimulateSharded(t *testing.T) {
	w := smallWorkload(t, nil)
	res, err := es.SimulateSharded(w, "Delayed-LOS", es.Options{Cs: 7}, es.ShardedOptions{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.JobsFinished != 100 {
		t.Fatalf("finished %d/100", res.Merged.JobsFinished)
	}
	if res.Merged.MachineSize != 4*320 {
		t.Errorf("global machine %d, want 1280", res.Merged.MachineSize)
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("got %d cluster results, want 4", len(res.Clusters))
	}
	if _, err := es.SimulateSharded(w, "Delayed-LOS", es.Options{Config: es.Config{Observer: es.NewTrace(320, 32)}}, es.ShardedOptions{Clusters: 2}); err == nil {
		t.Error("sharded run with a trace accepted")
	}
	if _, err := es.SimulateSharded(w, "NOPE", es.Options{}, es.ShardedOptions{Clusters: 2}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestTemplateRule: every front end that copies a run configuration and
// supplies the policy itself rejects a template carrying one, by the
// engine's one rule (engine.Config.ValidateTemplate), and rejects a field
// it fills in or forbids (engine.ErrTemplateOwned) instead of replacing
// it; a template's other settings still reach every run, the fault model
// with each run's seed.
func TestTemplateRule(t *testing.T) {
	w := smallWorkload(t, nil)
	p := workload.DefaultParams()
	p.N = 60
	sweep := func(tmpl engine.Config, seeds ...int64) (*experiment.Result, error) {
		return (&experiment.Sweep{
			ID:         "template",
			Algorithms: []experiment.Algorithm{experiment.MustByName("EASY")},
			Points:     []experiment.Point{{Params: p, Cs: 5, Engine: tmpl}},
			Seeds:      seeds,
		}).Run(1)
	}
	withSched := es.Options{Config: es.Config{Scheduler: es.NewDelayedLOS(5)}}
	rec := es.NewTrace(320, 32)
	faults := &engine.FaultConfig{MTBF: 30000, MTTR: 2000}
	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"Simulate scheduler", func() error {
			_, err := es.Simulate(w, "EASY", withSched)
			return err
		}, es.ErrTemplateScheduler},
		{"NewSession scheduler", func() error {
			_, err := es.NewSession("EASY", withSched)
			return err
		}, es.ErrTemplateScheduler},
		{"SimulateSharded scheduler", func() error {
			_, err := es.SimulateSharded(w, "EASY", withSched, es.ShardedOptions{Clusters: 2})
			return err
		}, es.ErrTemplateScheduler},
		{"SimulateSharded observer", func() error {
			_, err := es.SimulateSharded(w, "EASY", es.Options{Config: es.Config{Observer: rec}}, es.ShardedOptions{Clusters: 2})
			return err
		}, es.ErrTemplateObserver},
		{"Simulate prevalidated invalid workload", func() error {
			small := es.Config{M: 64, Unit: 32}
			if _, err := es.Simulate(w, "EASY", es.Options{Config: small}); err == nil {
				return fmt.Errorf("a %d-processor machine accepted the workload, so it checks nothing", small.M)
			}
			small.Prevalidated = true
			_, err := es.Simulate(w, "EASY", es.Options{Config: small})
			return err
		}, es.ErrTemplateOwned},
		{"NewSession prevalidated", func() error {
			_, err := es.NewSession("EASY", es.Options{Config: es.Config{Prevalidated: true}})
			return err
		}, es.ErrTemplateOwned},
		{"SimulateSharded prevalidated", func() error {
			_, err := es.SimulateSharded(w, "EASY", es.Options{Config: es.Config{Prevalidated: true}}, es.ShardedOptions{Clusters: 2})
			return err
		}, es.ErrTemplateOwned},
		{"Simulate ProcessECC", func() error {
			_, err := es.Simulate(w, "EASY", es.Options{Config: es.Config{ProcessECC: true}})
			return err
		}, es.ErrTemplateOwned},
		{"SimulateWith ProcessECC", func() error {
			_, err := es.SimulateWith(w, es.NewDelayedLOS(5), false, es.Options{Config: es.Config{ProcessECC: true}})
			return err
		}, es.ErrTemplateOwned},
		{"Sweep.Run machine size", func() error {
			_, err := sweep(engine.Config{M: p.M / 2}, 1)
			return err
		}, engine.ErrTemplateOwned},
		{"Sweep.Run allocation unit", func() error {
			_, err := sweep(engine.Config{Unit: 1}, 1)
			return err
		}, engine.ErrTemplateOwned},
		{"Sweep.Run geometry repeating Params", func() error {
			_, err := sweep(engine.Config{M: p.M, Unit: p.Unit}, 1)
			return err
		}, nil},
		{"Sweep.Run ProcessECC", func() error {
			_, err := sweep(engine.Config{ProcessECC: true}, 1)
			return err
		}, engine.ErrTemplateOwned},
		{"Sweep.Run prevalidated", func() error {
			_, err := sweep(engine.Config{Prevalidated: true}, 1)
			return err
		}, engine.ErrTemplateOwned},
		{"Sweep.Run paranoid", func() error {
			_, err := sweep(engine.Config{Paranoid: true}, 1)
			return err
		}, engine.ErrTemplateOwned},
		{"Sweep.Run scheduler", func() error {
			_, err := sweep(engine.Config{Scheduler: es.NewDelayedLOS(5)}, 1)
			return err
		}, engine.ErrTemplateScheduler},
		{"Sweep.Run observer", func() error {
			_, err := sweep(engine.Config{Observer: rec}, 1)
			return err
		}, engine.ErrTemplateObserver},
		{"Simulate migrate without contiguous", func() error {
			_, err := es.Simulate(w, "EASY", es.Options{Config: es.Config{Migrate: true}})
			return err
		}, engine.ErrMigrateNeedsContiguous},
		{"Sweep.Run migrate without contiguous", func() error {
			_, err := sweep(engine.Config{Migrate: true}, 1)
			return err
		}, engine.ErrMigrateNeedsContiguous},
		{"Sweep.Run seeds each run's faults", func() error {
			res, err := sweep(engine.Config{Faults: faults}, 3, 4)
			if err != nil {
				return err
			}
			for si, seed := range []int64{3, 4} {
				q := p
				q.Seed = seed
				wl, err := es.GenerateWorkload(q)
				if err != nil {
					return err
				}
				fc := *faults
				fc.Seed = seed
				want, err := es.Simulate(wl, "EASY", es.Options{Config: es.Config{Faults: &fc}, Cs: 5})
				if err != nil {
					return err
				}
				if want.Summary.DownProcSeconds == 0 {
					return fmt.Errorf("seed %d: no downtime, so the seed goes unchecked", seed)
				}
				if got := res.Cells[0][0].PerSeed[si]; got != want.Summary {
					return fmt.Errorf("seed %d: sweep cell %+v, standalone run %+v", seed, got, want.Summary)
				}
			}
			if faults.Seed != 0 {
				return fmt.Errorf("sweep wrote fault seed %d into the shared template", faults.Seed)
			}
			return nil
		}, nil},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want errors.Is(err, %v)", tc.name, err, tc.want)
		}
	}
}
