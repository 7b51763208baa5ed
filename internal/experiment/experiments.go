package experiment

import (
	"fmt"
	"math"
	"sort"

	"elastisched/internal/engine"
	"elastisched/internal/fault"
	"elastisched/internal/workload"
)

// Experiment is one paper figure/table (or an extension study): one or more
// sweep panels plus the improvement tables derived from them.
type Experiment struct {
	ID    string
	Title string
	Notes string

	Panels       []*Sweep
	Improvements []ImprovementSpec
}

// ImprovementSpec derives a paper-style table from one panel.
type ImprovementSpec struct {
	Name      string // e.g. "Table IV"
	Panel     int    // index into Panels
	Target    string
	Baselines []string
}

// DefaultSeeds averages each point over three deterministic runs. The paper
// plots single runs; multiple seeds reduce single-trace noise while keeping
// results reproducible (set to one seed to mirror the paper exactly).
func DefaultSeeds() []int64 { return []int64{1, 2, 3} }

// DefaultLoads is the paper's Load interval [0.5, 1] (Figures 7-11).
func DefaultLoads() []float64 { return []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} }

// CsFor returns the empirically good maximum skip count for a small-job
// probability, following the paper's Figures 5-6: the knee sits near 7-8
// for balanced mixes and near 3 when small jobs dominate. Experiments with
// load sweeps use this, as the paper does ("we first empirically obtain the
// optimal value of C_s for a given value of P_S").
func CsFor(ps float64) int {
	switch {
	case ps <= 0.35:
		return 8
	case ps <= 0.65:
		return 7
	default:
		return 3
	}
}

// batchParams returns the standard batch workload at a given small-job
// probability and target load.
func batchParams(ps, load float64) workload.Params {
	p := workload.DefaultParams()
	p.PS = ps
	p.TargetLoad = load
	return p
}

// loadPoints builds load-sweep points from a params template.
func loadPoints(template func(load float64) workload.Params, cs int) []Point {
	pts := make([]Point, 0, len(DefaultLoads()))
	for _, load := range DefaultLoads() {
		pts = append(pts, Point{X: load, Params: template(load), Cs: cs})
	}
	return pts
}

func algos(names ...string) []Algorithm {
	out := make([]Algorithm, 0, len(names))
	for _, n := range names {
		out = append(out, MustByName(n))
	}
	return out
}

// CalibrateCs empirically finds the maximum skip count that minimizes
// Delayed-LOS's mean waiting time for a workload configuration — the
// procedure the paper applies before each load sweep ("we first empirically
// obtain the optimal value of C_s for a given value of P_S", Section V-A).
// It returns the best C_s in [1, csMax] and the full calibration result.
func CalibrateCs(params workload.Params, csMax int, seeds []int64, workers int) (int, *Result, error) {
	if csMax < 1 {
		csMax = 20
	}
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	pts := make([]Point, 0, csMax)
	for cs := 1; cs <= csMax; cs++ {
		pts = append(pts, Point{X: float64(cs), Params: params, Cs: cs})
	}
	sweep := &Sweep{
		ID: "calibrate-cs", Title: "C_s calibration", XLabel: "C_s",
		Algorithms: algos("Delayed-LOS"),
		Points:     pts,
		Seeds:      seeds,
	}
	r, err := sweep.Run(workers)
	if err != nil {
		return 0, nil, err
	}
	best, bestWait := 1, math.Inf(1)
	for pi := range pts {
		if w := r.Cells[0][pi].Summary.MeanWait; w < bestWait {
			bestWait = w
			best = pi + 1
		}
	}
	return best, r, nil
}

// Fig1 reproduces Figure 1: EASY vs LOS mean waiting time against load on
// an SDSC-like trace whose load is varied by arrival-time scaling. The LOS
// paper validated on three archive logs (CTC, SDSC, KTH); panels for
// CTC-like and KTH-like stand-ins are included as well.
func Fig1() *Experiment {
	panel := func(id, title string, base workload.Params) *Sweep {
		template := func(load float64) workload.Params {
			p := base
			p.TargetLoad = load
			return p
		}
		return &Sweep{
			ID: id, Title: title, XLabel: "Load",
			Algorithms: algos("EASY", "LOS"),
			Points:     loadPoints(template, 0),
			Seeds:      DefaultSeeds(),
		}
	}
	return &Experiment{
		ID:    "fig1",
		Title: "EASY vs LOS on archive-like logs (load via arrival-time scaling)",
		Notes: "Expected shape: LOS at or below EASY's waiting time (LOS wins on archive-like packing).",
		Panels: []*Sweep{
			panel("fig1", "SDSC-like trace (128 procs)", workload.SDSCLike()),
			panel("fig1-ctc", "CTC-like trace (512 procs)", workload.CTCLike()),
			panel("fig1-kth", "KTH-like trace (100 procs)", workload.KTHLike()),
		},
	}
}

// csSweep builds a C_s sweep panel at fixed load and P_S (Figures 5-6).
func csSweep(id string, ps, load float64) *Sweep {
	pts := make([]Point, 0, 20)
	for cs := 1; cs <= 20; cs++ {
		pts = append(pts, Point{X: float64(cs), Params: batchParams(ps, load), Cs: cs})
	}
	return &Sweep{
		ID:         id,
		Title:      fmt.Sprintf("metrics vs C_s (Load=%.1f, P_S=%.1f)", load, ps),
		XLabel:     "C_s",
		Algorithms: algos("EASY", "LOS", "Delayed-LOS"),
		Points:     pts,
		Seeds:      DefaultSeeds(),
	}
}

// Fig5 reproduces Figure 5: utilization and waiting time against the
// maximum skip count C_s for Load=0.9, P_S=0.5.
func Fig5() *Experiment {
	return &Experiment{
		ID:     "fig5",
		Title:  "Variation with maximum skip count C_s (Load=0.9, P_S=0.5)",
		Notes:  "Expected: Delayed-LOS above LOS/EASY; knee near C_s=7-8.",
		Panels: []*Sweep{csSweep("fig5", 0.5, 0.9)},
	}
}

// Fig6 reproduces Figure 6: the same sweep with small jobs dominant
// (P_S=0.8); performance becomes insensitive to C_s beyond ~3.
func Fig6() *Experiment {
	return &Experiment{
		ID:     "fig6",
		Title:  "Variation with maximum skip count C_s (Load=0.9, P_S=0.8)",
		Notes:  "Expected: insensitive to C_s beyond ~3.",
		Panels: []*Sweep{csSweep("fig6", 0.8, 0.9)},
	}
}

// Fig7 reproduces Figure 7 (and Table IV): metrics against load for
// P_S=0.2 — many large jobs, where Delayed-LOS wins and LOS trails EASY.
func Fig7() *Experiment {
	ps := 0.2
	return &Experiment{
		ID:    "fig7",
		Title: "Batch workload: variation with Load (P_S=0.2)",
		Notes: "Expected: Delayed-LOS best; LOS worse than EASY with varied job sizes.",
		Panels: []*Sweep{{
			ID: "fig7", Title: fmt.Sprintf("P_S=%.1f, C_s=%d", ps, CsFor(ps)), XLabel: "Load",
			Algorithms: algos("EASY", "LOS", "Delayed-LOS"),
			Points:     loadPoints(func(l float64) workload.Params { return batchParams(ps, l) }, CsFor(ps)),
			Seeds:      DefaultSeeds(),
		}},
		Improvements: []ImprovementSpec{{
			Name: "Table IV", Panel: 0, Target: "Delayed-LOS", Baselines: []string{"LOS", "EASY"},
		}},
	}
}

// Fig8 reproduces Figure 8: waiting time against load for P_S=0.5 and
// P_S=0.8 — Delayed-LOS approaches EASY as small jobs dominate, and both
// beat LOS.
func Fig8() *Experiment {
	panel := func(ps float64) *Sweep {
		return &Sweep{
			ID:         fmt.Sprintf("fig8-ps%.0f", ps*10),
			Title:      fmt.Sprintf("P_S=%.1f, C_s=%d", ps, CsFor(ps)),
			XLabel:     "Load",
			Algorithms: algos("EASY", "LOS", "Delayed-LOS"),
			Points:     loadPoints(func(l float64) workload.Params { return batchParams(ps, l) }, CsFor(ps)),
			Seeds:      DefaultSeeds(),
		}
	}
	return &Experiment{
		ID:     "fig8",
		Title:  "Batch workload: waiting time vs Load for P_S=0.5 and P_S=0.8",
		Notes:  "Expected: Delayed-LOS close to EASY, both above LOS.",
		Panels: []*Sweep{panel(0.5), panel(0.8)},
	}
}

// heteroPanel builds a heterogeneous load sweep (Figures 9-10).
func heteroPanel(id string, pd, ps float64) *Sweep {
	template := func(load float64) workload.Params {
		p := batchParams(ps, load)
		p.PD = pd
		return p
	}
	return &Sweep{
		ID:         id,
		Title:      fmt.Sprintf("P_D=%.1f, P_S=%.1f, C_s=%d", pd, ps, CsFor(ps)),
		XLabel:     "Load",
		Algorithms: algos("EASY-D", "LOS-D", "Hybrid-LOS"),
		Points:     loadPoints(template, CsFor(ps)),
		Seeds:      DefaultSeeds(),
	}
}

// Fig9 reproduces Figure 9 (and Table V): heterogeneous workload with
// P_D=0.5, P_S=0.2.
func Fig9() *Experiment {
	return &Experiment{
		ID:     "fig9",
		Title:  "Heterogeneous workload: variation with Load (P_D=0.5, P_S=0.2)",
		Notes:  "Expected: Hybrid-LOS best of the three.",
		Panels: []*Sweep{heteroPanel("fig9", 0.5, 0.2)},
		Improvements: []ImprovementSpec{{
			Name: "Table V", Panel: 0, Target: "Hybrid-LOS", Baselines: []string{"LOS-D", "EASY-D"},
		}},
	}
}

// Fig10 reproduces Figure 10: dedicated jobs dominant (P_D=0.9, P_S=0.5).
func Fig10() *Experiment {
	return &Experiment{
		ID:     "fig10",
		Title:  "Heterogeneous workload: variation with Load (P_D=0.9, P_S=0.5)",
		Notes:  "Expected: Hybrid-LOS still outperforms LOS-D and EASY-D.",
		Panels: []*Sweep{heteroPanel("fig10", 0.9, 0.5)},
	}
}

// Fig11 reproduces Figure 11 (and Tables VI-VII): the elastic workloads.
// Panel 0 is batch with ECCs (P_S=0.5); panel 1 is heterogeneous with ECCs
// (P_S=0.5, P_D=0.5). P_E=0.2, P_R=0.1 throughout, as the paper fixes.
func Fig11() *Experiment {
	elastic := func(load float64) workload.Params {
		p := batchParams(0.5, load)
		p.PE, p.PR = 0.2, 0.1
		return p
	}
	elasticHetero := func(load float64) workload.Params {
		p := elastic(load)
		p.PD = 0.5
		return p
	}
	cs := CsFor(0.5)
	return &Experiment{
		ID:    "fig11",
		Title: "Elastic workloads: ECCs with batch (P_S=0.5) and heterogeneous (P_S=0.5, P_D=0.5)",
		Notes: "Expected: -E variants of Delayed/Hybrid still win, by smaller margins than Tables IV-V.",
		Panels: []*Sweep{
			{
				ID: "fig11-batch", Title: "batch + ECC (P_S=0.5)", XLabel: "Load",
				Algorithms: algos("EASY-E", "LOS-E", "Delayed-LOS-E"),
				Points:     loadPoints(elastic, cs),
				Seeds:      DefaultSeeds(),
			},
			{
				ID: "fig11-hetero", Title: "heterogeneous + ECC (P_S=0.5, P_D=0.5)", XLabel: "Load",
				Algorithms: algos("EASY-DE", "LOS-DE", "Hybrid-LOS-E"),
				Points:     loadPoints(elasticHetero, cs),
				Seeds:      DefaultSeeds(),
			},
		},
		Improvements: []ImprovementSpec{
			{Name: "Table VI", Panel: 0, Target: "Delayed-LOS-E", Baselines: []string{"LOS-E", "EASY-E"}},
			{Name: "Table VII", Panel: 1, Target: "Hybrid-LOS-E", Baselines: []string{"LOS-DE", "EASY-DE"}},
		},
	}
}

// Baselines is an extension study: the related-work policies of Section II
// against EASY and Delayed-LOS.
func Baselines() *Experiment {
	ps := 0.5
	return &Experiment{
		ID:    "baselines",
		Title: "Related-work baselines (FCFS, SJF, LJF, conservative) vs EASY and Delayed-LOS",
		Panels: []*Sweep{{
			ID: "baselines", Title: fmt.Sprintf("P_S=%.1f", ps), XLabel: "Load",
			Algorithms: algos("FCFS", "SJF", "LJF", "CONS", "EASY", "Delayed-LOS"),
			Points:     loadPoints(func(l float64) workload.Params { return batchParams(ps, l) }, CsFor(ps)),
			Seeds:      DefaultSeeds(),
		}},
	}
}

// Lookahead is the DP-window ablation: the LOS paper caps the lookahead at
// 50 jobs; this sweep quantifies the packing cost of shallower windows.
func Lookahead() *Experiment {
	depths := []int{2, 5, 10, 25, 50, 100}
	pts := make([]Point, 0, len(depths))
	for _, d := range depths {
		pts = append(pts, Point{X: float64(d), Params: batchParams(0.2, 0.9), Cs: CsFor(0.2), Lookahead: d})
	}
	return &Experiment{
		ID:    "lookahead",
		Title: "Ablation: DP lookahead window depth (Load=0.9, P_S=0.2)",
		Panels: []*Sweep{{
			ID: "lookahead", Title: "window depth sweep", XLabel: "lookahead",
			Algorithms: algos("LOS", "Delayed-LOS"),
			Points:     pts,
			Seeds:      DefaultSeeds(),
		}},
	}
}

// ECCSensitivity is an extension study: how the extension probability P_E
// degrades each elastic scheduler (the paper fixes P_E=0.2).
func ECCSensitivity() *Experiment {
	pes := []float64{0, 0.1, 0.2, 0.3, 0.4}
	pts := make([]Point, 0, len(pes))
	for _, pe := range pes {
		p := batchParams(0.5, 0.9)
		p.PE, p.PR = pe, 0.1
		pts = append(pts, Point{X: pe, Params: p, Cs: CsFor(0.5)})
	}
	return &Experiment{
		ID:    "ecc-sensitivity",
		Title: "Ablation: extension probability P_E (Load=0.9, P_S=0.5, P_R=0.1)",
		Panels: []*Sweep{{
			ID: "ecc-sensitivity", Title: "P_E sweep", XLabel: "P_E",
			Algorithms: algos("EASY-E", "LOS-E", "Delayed-LOS-E"),
			Points:     pts,
			Seeds:      DefaultSeeds(),
		}},
	}
}

// SizeElastic exercises the paper's future-work EP/RP resource-dimension
// elasticity through the same harness.
func SizeElastic() *Experiment {
	pts := make([]Point, 0, 3)
	for _, pe := range []float64{0, 0.2, 0.4} {
		p := batchParams(0.5, 0.9)
		p.PE, p.PR = pe, pe/2
		p.SizeECC = true
		pts = append(pts, Point{X: pe, Params: p, Cs: CsFor(0.5)})
	}
	return &Experiment{
		ID:    "size-elastic",
		Title: "Extension: EP/RP size elasticity (future work, Section VI)",
		Panels: []*Sweep{{
			ID: "size-elastic", Title: "EP probability sweep", XLabel: "P_EP",
			Algorithms: algos("EASY-E", "Delayed-LOS-E"),
			Points:     pts,
			Seeds:      DefaultSeeds(),
		}},
	}
}

// LOSVariants is an interpretation ablation: the paper narrates LOS as
// "start the head right away (instead of running the DP)"; the original
// Shmueli-Feitelson algorithm packs the rest of the capacity in the same
// cycle. Both readings are implemented (LOS and LOS+); this sweep measures
// the gap between them and against EASY/Delayed-LOS on the Figure 7
// workload.
func LOSVariants() *Experiment {
	ps := 0.2
	return &Experiment{
		ID:    "los-variants",
		Title: "Ablation: LOS interpretation (head-only vs head+DP-fill)",
		Panels: []*Sweep{{
			ID: "los-variants", Title: fmt.Sprintf("P_S=%.1f", ps), XLabel: "Load",
			Algorithms: algos("EASY", "LOS", "LOS+", "Delayed-LOS"),
			Points:     loadPoints(func(l float64) workload.Params { return batchParams(ps, l) }, CsFor(ps)),
			Seeds:      DefaultSeeds(),
		}},
	}
}

// HeteroBaselines adds the conservative-with-reservations baseline (CONS-D)
// to the heterogeneous comparison — a stronger reference point than EASY-D.
func HeteroBaselines() *Experiment {
	return &Experiment{
		ID:    "hetero-baselines",
		Title: "Extension: conservative backfilling with dedicated reservations (CONS-D)",
		Panels: []*Sweep{{
			ID: "hetero-baselines", Title: "P_D=0.5, P_S=0.2", XLabel: "Load",
			Algorithms: algos("CONS-D", "EASY-D", "Hybrid-LOS"),
			Points: loadPoints(func(l float64) workload.Params {
				p := batchParams(0.2, l)
				p.PD = 0.5
				return p
			}, CsFor(0.2)),
			Seeds: DefaultSeeds(),
		}},
	}
}

// Fragmentation is an extension study after Krevat et al. (Section II):
// BlueGene-style contiguous partitioning introduces fragmentation that
// capacity-only scheduling cannot see, and on-the-fly migration
// (compaction) recovers most of the loss. Three panels: scatter (the
// paper's model), contiguous, contiguous + migration.
func Fragmentation() *Experiment {
	panel := func(id string, contig, migrate bool) *Sweep {
		pts := loadPoints(func(l float64) workload.Params { return batchParams(0.5, l) }, CsFor(0.5))
		for i := range pts {
			pts[i].Engine.Contiguous = contig
			pts[i].Engine.Migrate = migrate
		}
		return &Sweep{
			ID: id, Title: id, XLabel: "Load",
			Algorithms: algos("EASY", "Delayed-LOS"),
			Points:     pts,
			Seeds:      DefaultSeeds(),
		}
	}
	return &Experiment{
		ID:    "fragmentation",
		Title: "Extension: contiguous allocation and migration (Krevat et al.)",
		Panels: []*Sweep{
			panel("frag-scatter", false, false),
			panel("frag-contiguous", true, false),
			panel("frag-migration", true, true),
		},
	}
}

// Estimates is an extension study on estimate inaccuracy: Section II cites
// Mu'alem & Feitelson's observation that backfilling improves when runtimes
// are over-estimated by about 2x. The sweep scales every user estimate by a
// fixed factor while actual runtimes stay put.
func Estimates() *Experiment {
	factors := []float64{1, 1.5, 2, 3, 5, 10}
	pts := make([]Point, 0, len(factors))
	for _, f := range factors {
		p := batchParams(0.5, 0.9)
		p.EstFactor = f
		pts = append(pts, Point{X: f, Params: p, Cs: CsFor(0.5)})
	}
	return &Experiment{
		ID:    "estimates",
		Title: "Ablation: estimate over-estimation factor (Load=0.9, P_S=0.5)",
		Notes: "Related work (Mu'alem & Feitelson): backfilling works better when estimates are ~2x the runtime.",
		Panels: []*Sweep{{
			ID: "estimates", Title: "estimate factor sweep", XLabel: "estimate factor",
			Algorithms: algos("EASY", "LOS", "Delayed-LOS", "CONS"),
			Points:     pts,
			Seeds:      DefaultSeeds(),
		}},
	}
}

// MachineScaling sweeps the machine size at fixed offered load: the packing
// problem gets combinatorially richer with more node groups (the DP state
// grows), while relative algorithm behaviour should persist — a scalability
// check beyond the paper's fixed 320-processor setup.
func MachineScaling() *Experiment {
	sizes := []int{160, 320, 640, 1280}
	pts := make([]Point, 0, len(sizes))
	for _, m := range sizes {
		p := batchParams(0.5, 0.9)
		p.M = m
		// Job sizes scale with the machine (small 1-3 groups, large up to
		// M/Unit groups), as the generator derives its ranges from M/Unit.
		pts = append(pts, Point{X: float64(m), Params: p, Cs: CsFor(0.5)})
	}
	return &Experiment{
		ID:    "machine-scaling",
		Title: "Extension: machine-size scaling at Load=0.9 (P_S=0.5)",
		Panels: []*Sweep{{
			ID: "machine-scaling", Title: "M sweep", XLabel: "processors",
			Algorithms: algos("EASY", "LOS", "Delayed-LOS"),
			Points:     pts,
			Seeds:      DefaultSeeds(),
		}},
	}
}

// LongRun is the paper's Section V sanity check that 500-job runs match
// longer ones: a 10,000-job run at Load=0.9, as the paper used.
func LongRun() *Experiment {
	p := batchParams(0.5, 0.9)
	p.N = 10000
	return &Experiment{
		ID:    "longrun",
		Title: "Sanity check: long trace (N=10000, Load=0.9, P_S=0.5)",
		Panels: []*Sweep{{
			ID: "longrun", Title: "single long run", XLabel: "Load",
			Algorithms: algos("EASY", "LOS", "Delayed-LOS"),
			Points:     []Point{{X: 0.9, Params: p, Cs: CsFor(0.5)}},
			Seeds:      []int64{1},
		}},
	}
}

// Adaptive compares the dynamic selection policy (Section V-A's suggestion)
// against its two constituents across the P_S spectrum.
func AdaptiveStudy() *Experiment {
	pss := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	pts := make([]Point, 0, len(pss))
	for _, ps := range pss {
		pts = append(pts, Point{X: ps, Params: batchParams(ps, 0.9), Cs: CsFor(ps)})
	}
	return &Experiment{
		ID:    "adaptive",
		Title: "Extension: dynamic Delayed-LOS/EASY selection across P_S (Load=0.9)",
		Panels: []*Sweep{{
			ID: "adaptive", Title: "P_S sweep", XLabel: "P_S",
			Algorithms: algos("EASY", "Delayed-LOS", "Adaptive"),
			Points:     pts,
			Seeds:      DefaultSeeds(),
		}},
	}
}

// Robustness is the malleability study: mean waiting time and destroyed
// work against the per-group failure rate, rigid against malleable. Both
// panels replay identical workloads (every batch job carries full bounds;
// PM only annotates, it never changes sizes or arrivals) and identical
// per-seed fault traces, so each -M cell is a paired comparison with its
// rigid twin. In the rigid panel every failure victim dies and restarts;
// in the malleable panel victims shrink onto their surviving node groups
// when the remainder covers their minimum, and the schedulers additionally
// shrink runners to admit the queue head. Expected: malleability converts
// lost work into ceded capacity and flattens the wait-time growth as MTBF
// drops.
func Robustness() *Experiment {
	mtbfs := []float64{20000, 40000, 80000, 160000}
	panel := func(id string, malleable bool, names ...string) *Sweep {
		pts := make([]Point, 0, len(mtbfs))
		for _, mtbf := range mtbfs {
			p := batchParams(0.5, 0.9)
			p.PM = 1.0
			pt := Point{
				X: mtbf, Params: p, Cs: CsFor(0.5),
				Engine: engine.Config{
					Faults: &engine.FaultConfig{
						MTBF: mtbf, MTTR: 2000,
						Retry: fault.RetryPolicy{Mode: fault.Requeue, Restart: fault.RemainingRuntime, Backoff: 30},
					},
					Malleable: malleable,
				},
			}
			if malleable {
				// Each reshape pays a data-redistribution penalty, so the
				// malleable advantage is measured net of reconfiguration cost.
				pt.Engine.ResizeOverhead = 60
			}
			pts = append(pts, pt)
		}
		return &Sweep{
			ID: id, Title: id + " (Load=0.9, P_S=0.5, P_M=1)", XLabel: "MTBF",
			Algorithms: algos(names...),
			Points:     pts,
			Seeds:      DefaultSeeds(),
		}
	}
	return &Experiment{
		ID:    "robustness",
		Title: "Extension: rigid vs malleable scheduling under node-group failures (MTBF sweep)",
		Notes: "Expected: -M variants lose less work (shrink instead of die) and wait grows more slowly as MTBF drops.",
		Panels: []*Sweep{
			panel("robust-rigid", false, "EASY", "Delayed-LOS"),
			panel("robust-malleable", true, "EASY-M", "Delayed-LOS-M"),
		},
	}
}

// Checkpoint is the checkpoint-economics study: the cost trade of
// checkpoint/restart under node-group failures. Each panel fixes one
// per-group MTBF and sweeps the periodic checkpoint interval I (x-axis):
// short intervals pay checkpoint overhead on every running job, long ones
// lose more work per kill — lost work falls and overhead rises with
// 1/I, so total fault-pipeline cost is U-shaped in I. One extra point per
// panel runs the daly policy, plotted at its base (single-group) interval
// sqrt(2·MTBF·C): it should sit at (or within 10% of) the sweep's optimum
// without per-MTBF tuning. Daly is per job in the engine — a job spanning
// g node groups fails g times as often, so it checkpoints at
// sqrt(2·(MTBF/g)·C) — which is why a single sampled MTBF serves the
// whole mixed-size workload where any one global interval must
// compromise between the 1-group and 10-group jobs.
func Checkpoint() *Experiment {
	const (
		cost = int64(120) // per-checkpoint (and per-restart) charge C
		mttr = 2000.0
	)
	mtbfs := []float64{20000, 80000}
	intervals := []int64{400, 800, 1600, 3200, 6400, 12800}
	panel := func(mtbf float64) *Sweep {
		point := func(x int64, policy fault.CheckpointPolicy, interval int64) Point {
			return Point{
				X: float64(x), Params: batchParams(0.5, 0.9), Cs: CsFor(0.5),
				Engine: engine.Config{Faults: &engine.FaultConfig{
					MTBF: mtbf, MTTR: mttr,
					Retry:              fault.RetryPolicy{Mode: fault.Requeue, Restart: fault.RemainingRuntime, Backoff: 30},
					Checkpoint:         policy,
					CheckpointInterval: interval,
					CheckpointCost:     cost,
				}},
			}
		}
		daly := fault.DalyInterval(mtbf, cost)
		pts := make([]Point, 0, len(intervals)+1)
		placed := false
		for _, ivl := range intervals {
			if !placed && daly < ivl {
				pts = append(pts, point(daly, fault.CheckpointDaly, 0))
				placed = true
			}
			pts = append(pts, point(ivl, fault.CheckpointPeriodic, ivl))
		}
		if !placed {
			pts = append(pts, point(daly, fault.CheckpointDaly, 0))
		}
		id := fmt.Sprintf("checkpoint-mtbf%d", int(mtbf))
		return &Sweep{
			ID: id, Title: fmt.Sprintf("%s (Load=0.9, P_S=0.5, C=%d, MTBF=%g)", id, cost, mtbf),
			XLabel:     "checkpoint interval (s)",
			Algorithms: algos("EASY", "Delayed-LOS"),
			Points:     pts,
			Seeds:      DefaultSeeds(),
		}
	}
	return &Experiment{
		ID:    "checkpoint",
		Title: "Extension: checkpoint-cost economics (interval sweep per MTBF, daly marker)",
		Notes: "Expected: lost work falls and checkpoint overhead rises as the interval shrinks; the daly point (x = sqrt(2*MTBF*C)) tracks each panel's total-cost optimum.",
		Panels: []*Sweep{
			panel(mtbfs[0]),
			panel(mtbfs[1]),
		},
	}
}

// All returns every defined experiment, paper figures first.
func All() []*Experiment {
	return []*Experiment{
		Fig1(), Fig5(), Fig6(), Fig7(), Fig8(), Fig9(), Fig10(), Fig11(),
		Baselines(), Lookahead(), ECCSensitivity(), SizeElastic(),
		Estimates(), LOSVariants(), HeteroBaselines(), Fragmentation(),
		MachineScaling(), LongRun(), AdaptiveStudy(), Robustness(),
		Checkpoint(),
	}
}

// ByID resolves an experiment. Table aliases map to the figure that
// produces them (table4 -> fig7, table5 -> fig9, table6/table7 -> fig11).
func ByID(id string) (*Experiment, error) {
	alias := map[string]string{
		"table4": "fig7", "table5": "fig9", "table6": "fig11", "table7": "fig11",
	}
	if target, ok := alias[id]; ok {
		id = target
	}
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0)
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("experiment: unknown id %q (known: %v, plus table4..table7 aliases)", id, ids)
}
