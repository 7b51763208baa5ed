package experiment

import (
	"os"
	"strings"
	"testing"

	"elastisched/internal/workload"
)

func TestRegistryCoversTableIII(t *testing.T) {
	// The paper's Table III enumerates twelve algorithms; all must resolve.
	tableIII := []string{
		"EASY", "EASY-D", "EASY-E", "EASY-DE",
		"LOS", "LOS-D", "LOS-E", "LOS-DE",
		"Delayed-LOS", "Hybrid-LOS", "Delayed-LOS-E", "Hybrid-LOS-E",
	}
	for _, name := range tableIII {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name != name {
			t.Errorf("%s resolved to %s", name, a.Name)
		}
		s := a.New(Point{Cs: 7})
		if s == nil {
			t.Fatalf("%s: nil scheduler", name)
		}
		wantECC := strings.HasSuffix(name, "E") && name != "EASY-DE" || strings.HasSuffix(name, "DE")
		if a.ECC != wantECC {
			t.Errorf("%s: ECC = %v, want %v", name, a.ECC, wantECC)
		}
		// Heterogeneous flag matches the -D / Hybrid naming.
		wantHet := strings.Contains(name, "-D") || strings.HasPrefix(name, "Hybrid")
		if s.Heterogeneous() != wantHet {
			t.Errorf("%s: heterogeneous = %v, want %v", name, s.Heterogeneous(), wantHet)
		}
	}
}

func TestRegistryBaselines(t *testing.T) {
	for _, name := range []string{"FCFS", "SJF", "LJF", "CONS", "Adaptive"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName did not panic")
		}
	}()
	MustByName("NOPE")
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 17 {
		t.Fatalf("only %d registered algorithms", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}

func TestPointEffectiveCs(t *testing.T) {
	if (Point{}).EffectiveCs() <= 0 {
		t.Error("default C_s must be positive")
	}
	if (Point{Cs: 3}).EffectiveCs() != 3 {
		t.Error("explicit C_s ignored")
	}
}

func TestLookaheadOverride(t *testing.T) {
	for _, name := range []string{"LOS", "Delayed-LOS", "Hybrid-LOS"} {
		a := MustByName(name)
		if s := a.New(Point{Cs: 7, Lookahead: 9}); s == nil {
			t.Fatalf("%s with lookahead: nil", name)
		}
	}
}

func tinySweep() *Sweep {
	p := workload.DefaultParams()
	p.N = 60
	p.TargetLoad = 0.8
	return &Sweep{
		ID: "tiny", Title: "tiny", XLabel: "Load",
		Algorithms: algos("EASY", "Delayed-LOS"),
		Points: []Point{
			{X: 0.8, Params: p, Cs: 7},
			{X: 0.9, Params: func() workload.Params { q := p; q.TargetLoad = 0.9; return q }(), Cs: 7},
		},
		Seeds: []int64{1, 2},
	}
}

func TestSweepRun(t *testing.T) {
	r, err := tinySweep().Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 2 || len(r.Cells[0]) != 2 {
		t.Fatalf("cells shape wrong")
	}
	for ai := range r.Cells {
		for pi := range r.Cells[ai] {
			c := r.Cells[ai][pi]
			if c.Runs != 2 {
				t.Errorf("cell (%d,%d) runs = %d, want 2", ai, pi, c.Runs)
			}
			if c.Summary.Utilization <= 0 {
				t.Errorf("cell (%d,%d) empty summary", ai, pi)
			}
			if c.RealizedLoad <= 0 {
				t.Errorf("cell (%d,%d) no realized load", ai, pi)
			}
		}
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	r1, err := tinySweep().Run(1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := tinySweep().Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for ai := range r1.Cells {
		for pi := range r1.Cells[ai] {
			if r1.Cells[ai][pi].Summary != r4.Cells[ai][pi].Summary {
				t.Fatalf("cell (%d,%d) differs across worker counts", ai, pi)
			}
		}
	}
}

func TestSweepEmptyRejected(t *testing.T) {
	s := &Sweep{ID: "x"}
	if _, err := s.Run(1); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestReportTableAndTSV(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Table()
	if !strings.Contains(tbl, "EASY/util") || !strings.Contains(tbl, "Delayed-LOS/wait") {
		t.Errorf("table missing columns:\n%s", tbl)
	}
	tsv := r.TSV()
	lines := strings.Split(strings.TrimSpace(tsv), "\n")
	if len(lines) != 1+2*2 {
		t.Errorf("TSV has %d lines, want 5", len(lines))
	}
	if !strings.HasPrefix(lines[0], "sweep\tx\talgorithm") {
		t.Errorf("TSV header wrong: %s", lines[0])
	}
}

// TestTSVLayoutsMatchCommittedHeaders checks that each panel picks the TSV
// layout its committed series was written in: standard for a fault-free
// panel, fault for a fault-only one, checkpoint for a checkpointed one.
func TestTSVLayoutsMatchCommittedHeaders(t *testing.T) {
	panels := make(map[string]*Sweep)
	for _, e := range All() {
		for _, p := range e.Panels {
			panels[p.ID] = p
		}
	}
	for _, id := range []string{"fig7", "robust-rigid", "checkpoint-mtbf20000"} {
		p, ok := panels[id]
		if !ok {
			t.Fatalf("no panel %s", id)
		}
		data, err := os.ReadFile("../../results/" + id + ".tsv")
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := strings.Cut(string(data), "\n")
		// With no algorithms the TSV is its header line alone.
		r := &Result{Sweep: &Sweep{ID: p.ID, Points: p.Points}}
		if got := strings.TrimSuffix(r.TSV(), "\n"); got != want {
			t.Errorf("%s header:\n got  %q\n want %q", id, got, want)
		}
	}
}

func TestReportPlot(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Plot(MetricWait, 40, 8)
	if !strings.Contains(out, "Load") {
		t.Errorf("plot missing x label:\n%s", out)
	}
}

func TestImprovementMath(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-verify against the cells for the wait metric.
	imp, err := r.MaxImprovement("Delayed-LOS", "EASY", MetricWait)
	if err != nil {
		t.Fatal(err)
	}
	best := -1e18
	for pi := range r.Sweep.Points {
		base := r.Cells[0][pi].Summary.MeanWait
		target := r.Cells[1][pi].Summary.MeanWait
		v := 100 * (base - target) / base
		if v > best {
			best = v
		}
	}
	if imp != best {
		t.Errorf("improvement %g, want %g", imp, best)
	}
}

func TestImprovementUnknownAlgo(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.MaxImprovement("NOPE", "EASY", MetricWait); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestImprovementTableFormat(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := r.ImprovementTable("Table X", "Delayed-LOS", []string{"EASY"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table X", "Utilization", "Job waiting time", "Slowdown", "EASY (%)"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("improvement table missing %q:\n%s", want, tbl)
		}
	}
}

func TestExperimentDefinitions(t *testing.T) {
	exps := All()
	if len(exps) < 12 {
		t.Fatalf("only %d experiments", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || len(e.Panels) == 0 {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		for _, panel := range e.Panels {
			if len(panel.Algorithms) == 0 || len(panel.Points) == 0 || len(panel.Seeds) == 0 {
				t.Errorf("panel %q incomplete", panel.ID)
			}
			for _, pt := range panel.Points {
				if err := pt.Params.Validate(); err != nil {
					t.Errorf("panel %q point %g: %v", panel.ID, pt.X, err)
				}
			}
		}
		for _, spec := range e.Improvements {
			if spec.Panel < 0 || spec.Panel >= len(e.Panels) {
				t.Errorf("experiment %q: improvement panel out of range", e.ID)
			}
			panel := e.Panels[spec.Panel]
			found := map[string]bool{}
			for _, a := range panel.Algorithms {
				found[a.Name] = true
			}
			if !found[spec.Target] {
				t.Errorf("experiment %q: target %q not in panel", e.ID, spec.Target)
			}
			for _, b := range spec.Baselines {
				if !found[b] {
					t.Errorf("experiment %q: baseline %q not in panel", e.ID, b)
				}
			}
		}
	}
	// The paper's figures must all exist.
	for _, id := range []string{"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestByIDAliases(t *testing.T) {
	cases := map[string]string{
		"fig7": "fig7", "table4": "fig7", "table5": "fig9",
		"table6": "fig11", "table7": "fig11",
	}
	for alias, want := range cases {
		e, err := ByID(alias)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if e.ID != want {
			t.Errorf("%s resolved to %s, want %s", alias, e.ID, want)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCsForMatchesPaperRegimes(t *testing.T) {
	if CsFor(0.2) < 7 {
		t.Error("large-job regime should use a high C_s")
	}
	if CsFor(0.8) > 4 {
		t.Error("small-job regime should use a low C_s (paper: insensitive beyond ~3)")
	}
}

func TestFigureExperimentsRunTiny(t *testing.T) {
	// Shrink each paper figure to a single point/seed and verify the
	// definition actually executes end to end.
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range []string{"fig1", "fig5", "fig7", "fig9", "fig11"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, panel := range e.Panels {
			panel.Points = panel.Points[:1]
			panel.Seeds = panel.Seeds[:1]
			for i := range panel.Points {
				panel.Points[i].Params.N = 80
			}
			r, err := panel.Run(0)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, panel.ID, err)
			}
			if r.Cells[0][0].Summary.JobsFinished != 80 {
				t.Errorf("%s/%s: finished %d/80", id, panel.ID, r.Cells[0][0].Summary.JobsFinished)
			}
		}
	}
}

func TestCI95AndPairedP(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := r.CI95("EASY", 0, MetricWait)
	if err != nil {
		t.Fatal(err)
	}
	mean := r.Cells[0][0].Summary.MeanWait
	if lo > mean || mean > hi {
		t.Errorf("CI [%g, %g] does not cover mean %g", lo, hi, mean)
	}
	if _, _, err := r.CI95("NOPE", 0, MetricWait); err == nil {
		t.Error("unknown algo accepted")
	}
	if _, _, err := r.CI95("EASY", 99, MetricWait); err == nil {
		t.Error("out-of-range point accepted")
	}

	p, err := r.PairedP("Delayed-LOS", "EASY", MetricWait)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1 {
		t.Errorf("p = %g out of [0,1]", p)
	}
	same, err := r.PairedP("EASY", "EASY", MetricWait)
	if err != nil || same != 1 {
		t.Errorf("self-comparison p = %g, %v, want 1", same, err)
	}
	if _, err := r.PairedP("NOPE", "EASY", MetricWait); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestSignificanceTableFormat(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := r.SignificanceTable("Delayed-LOS", []string{"EASY"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"paired t-test", "vs EASY", "slowdown"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("significance table missing %q:\n%s", want, tbl)
		}
	}
	if _, err := r.SignificanceTable("NOPE", []string{"EASY"}); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestCellPerSeedRecorded(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Cells[0][0]
	if len(c.PerSeed) != 2 {
		t.Fatalf("per-seed summaries = %d, want 2", len(c.PerSeed))
	}
	// The average of the per-seed values must equal the cell summary.
	want := (c.PerSeed[0].MeanWait + c.PerSeed[1].MeanWait) / 2
	if c.Summary.MeanWait != want {
		t.Errorf("summary %g != mean of per-seed %g", c.Summary.MeanWait, want)
	}
}

func TestMarkdownOutputs(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	md := r.Markdown()
	for _, want := range []string{"| Load |", "EASY util", "Delayed-LOS wait", "|---|"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	lines := strings.Split(strings.TrimSpace(md), "\n")
	// Header line + separator + one row per point + title/blank lines.
	var rows int
	for _, l := range lines {
		if strings.HasPrefix(l, "| 0.") {
			rows++
		}
	}
	if rows != 2 {
		t.Errorf("markdown has %d data rows, want 2:\n%s", rows, md)
	}
	imp, err := r.ImprovementMarkdown("Table T", "Delayed-LOS", []string{"EASY"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"**Table T**", "| Utilization |", "| Slowdown |"} {
		if !strings.Contains(imp, want) {
			t.Errorf("improvement markdown missing %q:\n%s", want, imp)
		}
	}
	if _, err := r.ImprovementMarkdown("x", "NOPE", []string{"EASY"}); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestCalibrateCs(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 80
	p.PS = 0.2
	p.TargetLoad = 0.9
	best, r, err := CalibrateCs(p, 5, []int64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best < 1 || best > 5 {
		t.Fatalf("calibrated C_s = %d outside [1,5]", best)
	}
	// best must indeed be the argmin of the calibration sweep.
	bestWait := r.Cells[0][best-1].Summary.MeanWait
	for pi := range r.Sweep.Points {
		if r.Cells[0][pi].Summary.MeanWait < bestWait {
			t.Fatalf("C_s=%d beats the calibrated %d", pi+1, best)
		}
	}
}

func TestCalibrateCsDefaults(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 40
	p.TargetLoad = 0.7
	best, r, err := CalibrateCs(p, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweep.Points) != 20 || len(r.Sweep.Seeds) != 3 {
		t.Errorf("defaults not applied: %d points, %d seeds", len(r.Sweep.Points), len(r.Sweep.Seeds))
	}
	if best < 1 || best > 20 {
		t.Errorf("best = %d", best)
	}
}

func TestResultSummaryAccessor(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Summary("EASY", 0)
	if err != nil || s.JobsFinished == 0 {
		t.Errorf("Summary accessor: %v %+v", err, s)
	}
	if _, err := r.Summary("NOPE", 0); err == nil {
		t.Error("unknown algo accepted")
	}
	if _, err := r.Summary("EASY", 9); err == nil {
		t.Error("out-of-range point accepted")
	}
}

func TestImprovementsAllPairs(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// Every ordered pair of the sweep's algorithms has a max improvement,
	// and an algorithm never improves on itself.
	for _, target := range r.Sweep.Algorithms {
		for _, base := range r.Sweep.Algorithms {
			v, err := r.MaxImprovement(target.Name, base.Name, MetricWait)
			if err != nil {
				t.Fatalf("%s>%s: %v", target.Name, base.Name, err)
			}
			if target.Name == base.Name && v != 0 {
				t.Errorf("%s improves on itself by %g%%", target.Name, v)
			}
		}
	}
}

func TestPlotSVG(t *testing.T) {
	r, err := tinySweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	svg := r.PlotSVG(MetricWait, 600, 400)
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "polyline") {
		t.Error("SVG figure missing elements")
	}
}
