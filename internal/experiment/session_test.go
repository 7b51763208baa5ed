package experiment

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/engine"
	"elastisched/internal/workload"
)

// propertyWorkload generates a small but eventful workload: elastic
// commands always, dedicated jobs only when the policy under test manages
// them.
func propertyWorkload(t *testing.T, hetero bool, seed int64) *cwf.Workload {
	t.Helper()
	p := workload.DefaultParams()
	p.N = 40
	p.Seed = seed
	p.PE = 0.3
	p.PR = 0.15
	if hetero {
		p.PD = 0.2
	}
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSnapshotRoundTripEveryAlgorithmEveryBoundary is the tentpole's core
// property over the full Table III registry: for every algorithm, snapshot
// the session at EVERY event-timestamp boundary, push the snapshot through
// its JSON encoding, restore it into a completely fresh session (fresh
// policy instance included), run to completion, and require a Result
// deep-equal to the uninterrupted run — bit-identical floats and all.
func TestSnapshotRoundTripEveryAlgorithmEveryBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic replay property; skipped in -short")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			algo := MustByName(name)
			pt := Point{Cs: 5}
			hetero := algo.New(pt).Heterogeneous()
			w := propertyWorkload(t, hetero, 42)
			cfg := func() engine.Config {
				return engine.Config{
					M: 320, Unit: 32,
					Scheduler:  algo.New(pt),
					ProcessECC: algo.ECC,
				}
			}
			want, err := engine.Run(w, cfg())
			if err != nil {
				t.Fatal(err)
			}

			live, err := engine.New(cfg())
			if err != nil {
				t.Fatal(err)
			}
			if err := live.Load(w); err != nil {
				t.Fatal(err)
			}
			boundary := 0
			for {
				sn, err := live.Snapshot()
				if err != nil {
					t.Fatalf("boundary %d: snapshot: %v", boundary, err)
				}
				var buf bytes.Buffer
				if err := sn.Encode(&buf); err != nil {
					t.Fatalf("boundary %d: encode: %v", boundary, err)
				}
				decoded, err := engine.DecodeSnapshot(&buf)
				if err != nil {
					t.Fatalf("boundary %d: decode: %v", boundary, err)
				}
				resumed, err := engine.New(cfg())
				if err != nil {
					t.Fatal(err)
				}
				if err := resumed.Restore(decoded); err != nil {
					t.Fatalf("boundary %d: restore: %v", boundary, err)
				}
				if err := resumed.Run(); err != nil {
					t.Fatalf("boundary %d: resumed run: %v", boundary, err)
				}
				got, err := resumed.Result()
				if err != nil {
					t.Fatalf("boundary %d: %v", boundary, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("boundary %d (t=%d): restored result diverged\ngot:  %+v\nwant: %+v",
						boundary, sn.Now, got, want)
				}

				ok, err := live.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				boundary++
			}
			if boundary < 10 {
				t.Fatalf("only %d boundaries exercised; workload too small to mean anything", boundary)
			}
		})
	}
}

// goldenRow pins the exact headline metrics of one algorithm on one fixed
// workload. Values are strconv.FormatFloat 'g'/-1 renderings — an exact
// decimal round trip of the float64 bits, so ANY numeric drift (a changed
// accumulation order, a reordered event, a different tie-break) fails the
// test. Regenerate with: go test ./internal/experiment -run GoldenDeterminism -v
// (failures print the observed row).
type goldenRow struct {
	util, meanWait, slowdown string
}

// TestGoldenDeterminism commits exact fixed-seed results for one
// representative of each algorithm family (satellite: golden determinism).
// The workload is fig1-sized but smaller (N=200, paper geometry) to keep
// the test fast; heterogeneous variants get a dedicated-job share.
func TestGoldenDeterminism(t *testing.T) {
	golden := map[string]goldenRow{
		"EASY":          {"0.9224309823413778", "295982.115", "30.73675504173946"},
		"EASY-DE":       {"0.9224336014630784", "308190.67", "28.550589088224"},
		"LOS":           {"0.9136657566137955", "292551.125", "30.39205006123529"},
		"LOS-D":         {"0.923154454129118", "285696.255", "28.14358307593937"},
		"Delayed-LOS":   {"0.9342265380066458", "298905.285", "31.030440321457668"},
		"Delayed-LOS-E": {"0.9277959187977484", "319868.345", "31.722879861075423"},
		"Hybrid-LOS-E":  {"0.9403506949475179", "311137.27", "28.813999287524847"},
		"CONS":          {"0.9421451060502506", "316423.7", "32.790481854962266"},
		"FCFS":          {"0.7557073901881772", "576405.48", "58.91035233151252"},
		"Adaptive":      {"0.9342265380066458", "298905.285", "31.030440321457668"},
		"LOS+":          {"0.9335001299043585", "305430.16", "31.685981990091832"},
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for name, want := range golden {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			algo := MustByName(name)
			pt := Point{Cs: 5}
			hetero := algo.New(pt).Heterogeneous()
			p := workload.DefaultParams()
			p.N = 200
			p.Seed = 1
			p.PE = 0.2
			p.PR = 0.1
			if hetero {
				p.PD = 0.1
			}
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(w, engine.Config{
				M: 320, Unit: 32, Scheduler: algo.New(pt), ProcessECC: algo.ECC,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRow{f(res.Summary.Utilization), f(res.Summary.MeanWait), f(res.Summary.Slowdown)}
			if got != want {
				t.Errorf("golden drift:\ngot:  {%q, %q, %q}\nwant: {%q, %q, %q}",
					got.util, got.meanWait, got.slowdown, want.util, want.meanWait, want.slowdown)
			}
		})
	}
}
