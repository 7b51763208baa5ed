package engine

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"elastisched/internal/audit"
	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/sched"
	"elastisched/internal/swf"
	"elastisched/internal/trace"
	"elastisched/internal/workload"
)

// allSchedulers instantiates one of every policy. Heterogeneous-capable
// policies are flagged so the driver can feed them dedicated jobs.
func allSchedulers() []sched.Scheduler {
	return []sched.Scheduler{
		sched.FCFS{}, sched.SJF{}, sched.LJF{}, &sched.Conservative{}, &sched.ConservativeD{},
		&sched.EASY{}, &sched.EASY{Ded: true},
		core.NewLOS(false), core.NewLOS(true), core.NewLOSPlus(),
		core.NewDelayedLOS(7), core.NewHybridLOS(7),
		core.NewAdaptive(7),
	}
}

// TestEveryAlgorithmCompletesEveryWorkload is the big cross-product
// invariant check: every policy must finish every job of randomized
// batch / heterogeneous / elastic workloads with machine invariants held
// at every instant (Paranoid) and the busy counter consistent throughout.
func TestEveryAlgorithmCompletesEveryWorkload(t *testing.T) {
	type scenario struct {
		name string
		mut  func(*workload.Params)
	}
	scenarios := []scenario{
		{"batch-light", func(p *workload.Params) { p.TargetLoad = 0.5 }},
		{"batch-overload", func(p *workload.Params) { p.TargetLoad = 1.3 }},
		{"batch-large-jobs", func(p *workload.Params) { p.PS = 0.1; p.TargetLoad = 0.9 }},
		{"batch-small-jobs", func(p *workload.Params) { p.PS = 0.95; p.TargetLoad = 0.9 }},
		{"heterogeneous", func(p *workload.Params) { p.PD = 0.5; p.TargetLoad = 0.9 }},
		{"dedicated-heavy", func(p *workload.Params) { p.PD = 0.95; p.TargetLoad = 0.8 }},
		{"elastic", func(p *workload.Params) { p.PE = 0.3; p.PR = 0.2; p.TargetLoad = 0.9 }},
		{"elastic-hetero", func(p *workload.Params) { p.PD = 0.5; p.PE = 0.2; p.PR = 0.1; p.TargetLoad = 0.9 }},
		{"size-elastic", func(p *workload.Params) { p.PE = 0.2; p.PR = 0.1; p.SizeECC = true; p.TargetLoad = 0.9 }},
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= 2; seed++ {
			p := workload.DefaultParams()
			p.N = 150
			p.Seed = seed
			sc.mut(&p)
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			hasDed := w.NumDedicated() > 0
			for _, mk := range allSchedulers() {
				mk := mk
				if hasDed && !mk.Heterogeneous() {
					continue
				}
				name := fmt.Sprintf("%s/seed%d/%s", sc.name, seed, mk.Name())
				t.Run(name, func(t *testing.T) {
					s := freshScheduler(mk.Name())
					rec := trace.NewRecorder(320, 32)
					elastic := len(w.Commands) > 0
					r, err := Run(w, Config{
						M: 320, Unit: 32, Scheduler: s,
						ProcessECC: elastic, Paranoid: true, Observer: rec,
					})
					if err != nil {
						t.Fatal(err)
					}
					if r.Summary.JobsFinished != p.N {
						t.Fatalf("finished %d/%d jobs", r.Summary.JobsFinished, p.N)
					}
					if r.Summary.Utilization <= 0 || r.Summary.Utilization > 1 {
						t.Fatalf("utilization out of range: %g", r.Summary.Utilization)
					}
					if r.Summary.MeanWait < 0 {
						t.Fatalf("negative wait: %g", r.Summary.MeanWait)
					}
					if r.Summary.Slowdown < 1 {
						t.Fatalf("slowdown below 1: %g", r.Summary.Slowdown)
					}
					// Independent oracle: the recorded schedule must be
					// feasible and lawful. Sizes in the workload may be
					// unquantized; the engine quantizes on admission, so
					// the auditor's size check needs the elastic
					// relaxation only for ECC scenarios.
					rep := audit.Check(w, rec.Spans(), audit.Options{
						M: 320, Unit: 32,
						Elastic:     elastic,
						SizeElastic: hasSizeCommands(w),
					})
					if err := rep.Error(); err != nil {
						t.Fatalf("%v (all: %v)", err, rep.Violations)
					}
				})
			}
		}
	}
}

// hasSizeCommands reports whether the workload carries EP/RP commands.
func hasSizeCommands(w interface{ SizeCommandCount() int }) bool {
	return w.SizeCommandCount() > 0
}

// freshScheduler builds an unused policy instance by name (policies hold
// scratch state; the table instances above are only used for names/flags).
func freshScheduler(name string) sched.Scheduler {
	switch name {
	case "FCFS":
		return sched.FCFS{}
	case "SJF":
		return sched.SJF{}
	case "LJF":
		return sched.LJF{}
	case "CONS":
		return &sched.Conservative{}
	case "CONS-D":
		return &sched.ConservativeD{}
	case "LOS+":
		return core.NewLOSPlus()
	case "EASY":
		return &sched.EASY{}
	case "EASY-D":
		return &sched.EASY{Ded: true}
	case "LOS":
		return core.NewLOS(false)
	case "LOS-D":
		return core.NewLOS(true)
	case "Delayed-LOS":
		return core.NewDelayedLOS(7)
	case "Hybrid-LOS":
		return core.NewHybridLOS(7)
	case "Adaptive":
		return core.NewAdaptive(7)
	default:
		panic("unknown scheduler " + name)
	}
}

// TestSDSCLikeTraceAcrossSchedulers replays the unquantized 128-processor
// configuration (unit = 1, power-of-two sizes) under the batch policies.
func TestSDSCLikeTraceAcrossSchedulers(t *testing.T) {
	p := workload.SDSCLike()
	p.N = 200
	p.TargetLoad = 0.9
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"FCFS", "EASY", "LOS", "Delayed-LOS", "CONS"} {
		t.Run(name, func(t *testing.T) {
			r, err := Run(w, Config{M: 128, Unit: 1, Scheduler: freshScheduler(name), Paranoid: true})
			if err != nil {
				t.Fatal(err)
			}
			if r.Summary.JobsFinished != 200 {
				t.Fatalf("finished %d/200", r.Summary.JobsFinished)
			}
		})
	}
}

// TestBackfillersBeatFCFS asserts the one robust qualitative ordering: on a
// loaded mixed workload, EASY and the LOS family wait far less than plain
// FCFS.
func TestBackfillersBeatFCFS(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 400
	p.PS = 0.5
	p.TargetLoad = 0.9
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	fcfs, err := Run(w, Config{M: 320, Unit: 32, Scheduler: sched.FCFS{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"EASY", "LOS", "Delayed-LOS", "CONS"} {
		r, err := Run(w, Config{M: 320, Unit: 32, Scheduler: freshScheduler(name)})
		if err != nil {
			t.Fatal(err)
		}
		if r.Summary.MeanWait >= fcfs.Summary.MeanWait {
			t.Errorf("%s mean wait %.0f not better than FCFS %.0f",
				name, r.Summary.MeanWait, fcfs.Summary.MeanWait)
		}
	}
}

// TestDelayedLOSWinsOnLargeJobWorkload pins the paper's headline result
// (Figure 7 regime): with P_S = 0.2 at high load, Delayed-LOS waits less
// than both LOS and EASY, averaged over a few seeds.
func TestDelayedLOSWinsOnLargeJobWorkload(t *testing.T) {
	var dWait, lWait, eWait float64
	seeds := []int64{1, 2, 3}
	for _, seed := range seeds {
		p := workload.DefaultParams()
		p.N = 400
		p.Seed = seed
		p.PS = 0.2
		p.TargetLoad = 0.9
		w, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		run := func(s sched.Scheduler) float64 {
			r, err := Run(w, Config{M: 320, Unit: 32, Scheduler: s})
			if err != nil {
				t.Fatal(err)
			}
			return r.Summary.MeanWait
		}
		dWait += run(core.NewDelayedLOS(8))
		lWait += run(core.NewLOS(false))
		eWait += run(&sched.EASY{})
	}
	if dWait >= lWait || dWait >= eWait {
		t.Errorf("Delayed-LOS wait %.0f not best (LOS %.0f, EASY %.0f)",
			dWait/3, lWait/3, eWait/3)
	}
}

// TestHybridLOSMatchesDelayedLOSOnBatchTraces: with no dedicated job
// pending, Algorithm 2 is Delayed-LOS (line 4), so on a batch-only trace
// Hybrid-LOS schedules exactly as Delayed-LOS with the same Cs and
// Lookahead, including a lookahead set after construction.
func TestHybridLOSMatchesDelayedLOSOnBatchTraces(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := genBatch(t, seed, 300, 1.0)
		for _, c := range []struct{ cs, lookahead int }{{7, 0}, {3, 0}, {5, 4}, {2, 1}} {
			h, d := core.NewHybridLOS(c.cs), core.NewDelayedLOS(c.cs)
			if c.lookahead > 0 {
				h.SetLookahead(c.lookahead)
				d.Lookahead = c.lookahead
			}
			if hs, ds := runTraced(t, w, h), runTraced(t, w, d); !reflect.DeepEqual(hs, ds) {
				t.Fatalf("seed %d, Cs %d, lookahead %d: Hybrid-LOS schedule differs from Delayed-LOS",
					seed, c.cs, c.lookahead)
			}
		}
	}
}

// TestArchiveLogReplay replays the golden SWF sample end to end with real
// estimate/actual semantics: jobs whose recorded runtime is below their
// estimate terminate prematurely.
func TestArchiveLogReplay(t *testing.T) {
	f, err := os.Open("../swf/testdata/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := swf.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	w := cwf.FromSWF(log)
	if len(w.Jobs) != 12 {
		t.Fatalf("converted %d jobs, want 12", len(w.Jobs))
	}
	for _, name := range []string{"FCFS", "EASY", "LOS", "Delayed-LOS", "CONS"} {
		r, err := Run(w, Config{M: 128, Unit: 1, Scheduler: freshScheduler(name), Paranoid: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Summary.JobsFinished != 12 {
			t.Fatalf("%s: finished %d/12", name, r.Summary.JobsFinished)
		}
		// Job 1 recorded 3600s actual against a 4000s estimate: the replay
		// must run it 3600s, not 4000.
		if r.Summary.MeanRun >= 4000 {
			t.Errorf("%s: mean run %.0f suggests estimates were used as runtimes", name, r.Summary.MeanRun)
		}
	}
}
