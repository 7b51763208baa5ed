package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"elastisched/internal/audit"
	"elastisched/internal/cwf"
	"elastisched/internal/engine"
	"elastisched/internal/fault"
	"elastisched/internal/metrics"
	"elastisched/internal/trace"
	"elastisched/internal/workload"
)

// chaosPolicies are the retry policies the chaos harness cycles through,
// one per seed: every (mode, restart, budget, backoff) corner gets hit
// across the seed sweep.
var chaosPolicies = []fault.RetryPolicy{
	{}, // requeue, full restart, unlimited retries, no backoff
	{Restart: fault.RemainingRuntime, Backoff: 30},
	{MaxRetries: 2, Backoff: 10},
	{Restart: fault.RemainingRuntime, MaxRetries: 1},
	{Mode: fault.Drop},
}

// chaosVariant selects the machine/malleability/checkpointing corner a
// chaos run exercises. The zero value is the classic scatter, rigid
// configuration. plain drops elastic commands from the workload so the
// audit's per-attempt replay rules (restart binary, checkpoint chain)
// engage instead of deferring to the elastic work-conservation replay.
type chaosVariant struct {
	malleable  bool
	contiguous bool
	overhead   int64
	plain      bool
	ckpt       fault.CheckpointPolicy
	ckptIvl    int64
	ckptCost   int64
}

// chaosWorkload generates a small but eventful workload for fault runs:
// elastic commands always, size elasticity and dedicated jobs on the seeds
// and policies that exercise them, and malleable bounds on most batch jobs
// when the variant resizes.
func chaosWorkload(t *testing.T, hetero, sizeECC bool, v chaosVariant, seed int64) *cwf.Workload {
	t.Helper()
	p := workload.DefaultParams()
	p.N = 80
	p.Seed = seed
	p.PE = 0.2
	p.PR = 0.1
	p.SizeECC = sizeECC
	if v.plain {
		p.PE, p.PR, p.SizeECC = 0, 0, false
	}
	if hetero {
		p.PD = 0.2
	}
	if v.malleable {
		p.PM = 0.7
	}
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// chaosConfig builds the engine config for one (algorithm, seed) chaos run.
// The fault trace is a pure function of the seed, so every algorithm faces
// the same outages.
func chaosConfig(a Algorithm, seed int64, v chaosVariant) engine.Config {
	pt := Point{Cs: 5}
	return engine.Config{
		M: 320, Unit: 32,
		Scheduler:      a.New(pt),
		ProcessECC:     a.ECC,
		Contiguous:     v.contiguous,
		Malleable:      v.malleable,
		ResizeOverhead: v.overhead,
		Faults: &engine.FaultConfig{
			MTBF: 40000, MTTR: 2000, Seed: seed,
			Retry:              chaosPolicies[int(seed)%len(chaosPolicies)],
			Checkpoint:         v.ckpt,
			CheckpointInterval: v.ckptIvl,
			CheckpointCost:     v.ckptCost,
		},
	}
}

// chaosRun executes one algorithm under one seeded fault trace, audits the
// recorded schedule with the fault-aware oracle, and returns the run's
// summary so callers can assert the property is not vacuous.
func chaosRun(t *testing.T, a Algorithm, seed int64, v chaosVariant) metrics.Summary {
	t.Helper()
	hetero := a.New(Point{Cs: 5}).Heterogeneous()
	sizeECC := a.ECC && seed%4 == 0
	w := chaosWorkload(t, hetero, sizeECC, v, seed)

	cfg := chaosConfig(a, seed, v)
	rec := trace.NewRecorder(320, 32)
	cfg.Observer = rec
	s, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := s.Load(w); err != nil {
		t.Fatalf("seed %d: load: %v", seed, err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("seed %d: run: %v", seed, err)
	}
	r, err := s.Result()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	// Every submitted job must be accounted for: finished or dropped.
	if got := r.Summary.JobsFinished + r.Summary.DroppedJobs; got != len(w.Jobs) {
		t.Errorf("seed %d: %d finished + %d dropped != %d submitted",
			seed, r.Summary.JobsFinished, r.Summary.DroppedJobs, len(w.Jobs))
	}
	if r.Summary.RetriedJobs > 0 && r.Summary.KilledJobs == 0 {
		t.Errorf("seed %d: %d retries with no kills", seed, r.Summary.RetriedJobs)
	}

	elastic := a.ECC && len(w.Commands) > 0
	rep := audit.Check(w, rec.Spans(), audit.Options{
		M: 320, Unit: 32,
		Elastic:        elastic,
		SizeElastic:    a.ECC && w.SizeCommandCount() > 0,
		Malleable:      v.malleable,
		ResizeOverhead: v.overhead,
		Faults:         s.FaultTrace(),
		Retry:          cfg.Faults.Retry,

		Checkpoint:         cfg.Faults.Checkpoint,
		CheckpointInterval: cfg.Faults.ResolvedCheckpointInterval(),
		CheckpointCost:     cfg.Faults.CheckpointCost,
		MTBF:               cfg.Faults.MTBF,
	})
	if err := rep.Error(); err != nil {
		t.Errorf("seed %d: %v (all: %v)", seed, err, rep.Violations)
	}
	if r.Summary.DownProcSeconds == 0 {
		t.Errorf("seed %d: no downtime recorded; the fault trace never fired", seed)
	}
	return r.Summary
}

// TestChaos is the chaos harness property: every registry algorithm, run
// under many independently seeded fault traces and retry policies, must
// produce a schedule the fault-aware audit oracle certifies violation-free.
func TestChaos(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a := MustByName(name)
			killed := 0
			for i := 0; i < seeds; i++ {
				killed += chaosRun(t, a, int64(1000+i), chaosVariant{}).KilledJobs
			}
			if !testing.Short() && killed == 0 {
				t.Errorf("no job killed across %d seeds; the chaos property is vacuous", seeds)
			}
		})
	}
}

// TestChaosSmoke is the CI-sized slice of the chaos property: two
// representative algorithms (one rigid, one elastic replanner) under a few
// traces. Cheap enough to run under -race on every push.
func TestChaosSmoke(t *testing.T) {
	for _, name := range []string{"EASY", "CONS"} {
		name := name
		t.Run(name, func(t *testing.T) {
			a := MustByName(name)
			for i := 0; i < 3; i++ {
				chaosRun(t, a, int64(2000+i), chaosVariant{})
			}
		})
	}
}

// TestChaosMalleable is the malleability chaos property: -M variants under
// seeded fault traces, on scatter and on contiguous machines, must produce
// schedules the oracle certifies against the resize laws — bounds
// respected, work conserved through every reshape, no resize of dedicated
// or rigid jobs — and the runs must actually resize (non-vacuous).
func TestChaosMalleable(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	variants := []struct {
		name string
		v    chaosVariant
	}{
		{"scatter", chaosVariant{malleable: true}},
		{"contiguous", chaosVariant{malleable: true, contiguous: true, overhead: 5}},
	}
	for _, name := range []string{"EASY-M", "Delayed-LOS-M", "CONS-M", "Hybrid-LOS-E-M"} {
		for _, vr := range variants {
			vr := vr
			a := MustByName(name)
			t.Run(name+"/"+vr.name, func(t *testing.T) {
				resizes, killed := 0, 0
				for i := 0; i < seeds; i++ {
					sum := chaosRun(t, a, int64(3000+i), vr.v)
					resizes += sum.SchedulerResizes
					killed += sum.KilledJobs
				}
				if !testing.Short() && resizes == 0 {
					t.Errorf("no scheduler resize across %d seeds; the malleability property is vacuous", seeds)
				}
				_ = killed // kills may legitimately reach zero when every victim shrinks
			})
		}
	}
}

// TestChaosMalleableSmoke is the CI-sized Contiguous×Faults×malleable
// matrix cell: the configuration the engine rejected outright before true
// malleability, now required to run violation-free under the full oracle.
func TestChaosMalleableSmoke(t *testing.T) {
	a := MustByName("EASY-M")
	v := chaosVariant{malleable: true, contiguous: true, overhead: 3}
	resizes := 0
	for i := 0; i < 3; i++ {
		resizes += chaosRun(t, a, int64(4000+i), v).SchedulerResizes
	}
	if resizes == 0 {
		t.Error("no scheduler resize across the smoke seeds; the matrix cell is vacuous")
	}
}

// chaosCheckpointCells is the checkpoint-policy axis of the chaos matrix.
// none/periodic/daly run on the plain (command-free) workload so every
// batch attempt is held to the audit's checkpoint chain replay; on-resize
// needs a malleable machine to take checkpoints at all, and composes the
// chain rule with the resize work-conservation replay.
var chaosCheckpointCells = []struct {
	name string
	v    chaosVariant
}{
	{"none", chaosVariant{plain: true}},
	{"periodic", chaosVariant{plain: true, ckpt: fault.CheckpointPeriodic, ckptIvl: 900, ckptCost: 40}},
	{"on-resize", chaosVariant{malleable: true, overhead: 3, ckpt: fault.CheckpointOnResize, ckptCost: 40}},
	{"daly", chaosVariant{plain: true, ckpt: fault.CheckpointDaly, ckptCost: 40}},
}

// TestChaosCheckpoint is the checkpoint chaos property: every registry
// algorithm, under every checkpoint policy and many seeded fault traces,
// must produce a schedule the checkpoint-aware oracle certifies — each
// completed attempt occupying exactly its runtime plus checkpoint costs,
// each requeue restarting from the last checkpoint — and the periodic and
// daly cells must actually take checkpoints (non-vacuous).
func TestChaosCheckpoint(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	for _, name := range Names() {
		for _, cell := range chaosCheckpointCells {
			name, cell := name, cell
			t.Run(name+"/"+cell.name, func(t *testing.T) {
				a := MustByName(name)
				ckpts, killed := 0, 0
				for i := 0; i < seeds; i++ {
					sum := chaosRun(t, a, int64(5000+i), cell.v)
					ckpts += sum.CheckpointsTaken
					killed += sum.KilledJobs
				}
				if testing.Short() {
					return
				}
				switch cell.v.ckpt {
				case fault.CheckpointNone:
					if ckpts != 0 {
						t.Errorf("policy none took %d checkpoints", ckpts)
					}
				case fault.CheckpointPeriodic, fault.CheckpointDaly:
					if ckpts == 0 {
						t.Errorf("no checkpoint taken across %d seeds; the chain property is vacuous", seeds)
					}
					if killed == 0 {
						t.Errorf("no job killed across %d seeds; restarts from checkpoints untested", seeds)
					}
				}
			})
		}
	}
}

// TestChaosCheckpointSmoke is the CI-sized slice of the checkpoint chaos
// property: two representative algorithms under every policy and a few
// traces, cheap enough to run under -race on every push. The on-resize
// cell doubles as the -M × Contiguous × Faults × checkpoint matrix corner.
func TestChaosCheckpointSmoke(t *testing.T) {
	for _, name := range []string{"EASY", "CONS"} {
		name := name
		t.Run(name, func(t *testing.T) {
			a := MustByName(name)
			for _, cell := range chaosCheckpointCells {
				v := cell.v
				if v.ckpt == fault.CheckpointOnResize {
					v.contiguous = true
				}
				for i := 0; i < 3; i++ {
					chaosRun(t, a, int64(6000+i), v)
				}
			}
		})
	}
}

// TestChaosCheckpointMalleable composes checkpointing with true
// malleability on the -M schedulers: periodic checkpoints while the
// scheduler shrinks and expands jobs, on scatter and contiguous machines.
// Resized jobs defer to the work-conservation replay; the untouched ones
// stay on the chain rule — both must hold at once.
func TestChaosCheckpointMalleable(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	variants := []struct {
		name string
		v    chaosVariant
	}{
		{"scatter", chaosVariant{malleable: true, ckpt: fault.CheckpointPeriodic, ckptIvl: 900, ckptCost: 40}},
		{"contiguous", chaosVariant{malleable: true, contiguous: true, overhead: 5, ckpt: fault.CheckpointOnResize, ckptCost: 40}},
	}
	for _, name := range []string{"EASY-M", "Delayed-LOS-M"} {
		for _, vr := range variants {
			name, vr := name, vr
			t.Run(name+"/"+vr.name, func(t *testing.T) {
				a := MustByName(name)
				ckpts := 0
				for i := 0; i < seeds; i++ {
					ckpts += chaosRun(t, a, int64(7000+i), vr.v).CheckpointsTaken
				}
				if !testing.Short() && ckpts == 0 {
					t.Errorf("no checkpoint taken across %d seeds; the malleable checkpoint cell is vacuous", seeds)
				}
			})
		}
	}
}

// TestChaosCheckpointSnapshotRoundTrip snapshots a checkpointed run
// mid-outage — with pending checkpoint events and per-job checkpoint
// progress in flight — pushes it through the JSON encoding into a fresh
// session, and requires the restored run to finish with a Result
// deep-equal to the uninterrupted one. The daly row additionally proves
// the derived interval survives the wire in resolved periodic form.
func TestChaosCheckpointSnapshotRoundTrip(t *testing.T) {
	cells := []struct {
		algo string
		name string
		v    chaosVariant
	}{
		{"EASY", "periodic", chaosVariant{plain: true, ckpt: fault.CheckpointPeriodic, ckptIvl: 900, ckptCost: 40}},
		{"Delayed-LOS", "daly", chaosVariant{plain: true, ckpt: fault.CheckpointDaly, ckptCost: 40}},
		{"EASY-M", "on-resize", chaosVariant{malleable: true, overhead: 3, ckpt: fault.CheckpointOnResize, ckptCost: 40}},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.algo+"/"+cell.name, func(t *testing.T) {
			a := MustByName(cell.algo)
			seed := int64(7)
			hetero := a.New(Point{Cs: 5}).Heterogeneous()
			w := chaosWorkload(t, hetero, false, cell.v, seed)

			runFull := func() *engine.Result {
				s, err := engine.New(chaosConfig(a, seed, cell.v))
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Load(w); err != nil {
					t.Fatal(err)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				r, err := s.Result()
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			want := runFull()
			if cell.v.ckpt != fault.CheckpointOnResize && want.Summary.CheckpointsTaken == 0 {
				t.Fatalf("uninterrupted run took no checkpoints; the round trip is vacuous")
			}

			live, err := engine.New(chaosConfig(a, seed, cell.v))
			if err != nil {
				t.Fatal(err)
			}
			if err := live.Load(w); err != nil {
				t.Fatal(err)
			}
			ft := live.FaultTrace()
			if ft == nil || len(ft.Events) == 0 {
				t.Fatal("no fault trace generated")
			}
			var mid int64 = -1
			for _, e := range ft.Events {
				if e.Kind == fault.Fail {
					mid = e.Time + 1
					break
				}
			}
			if mid < 0 {
				t.Fatal("trace has no failure event")
			}
			if err := live.RunUntil(mid); err != nil {
				t.Fatal(err)
			}
			sn, err := live.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if sn.Checkpoint == "" {
				t.Fatalf("snapshot carries no checkpoint policy: %+v", sn)
			}
			var buf bytes.Buffer
			if err := sn.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			decoded, err := engine.DecodeSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := engine.New(chaosConfig(a, seed, cell.v))
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(decoded); err != nil {
				t.Fatal(err)
			}
			if err := resumed.Run(); err != nil {
				t.Fatal(err)
			}
			got, err := resumed.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored checkpointed run diverged at snapshot t=%d\ngot:  %+v\nwant: %+v",
					sn.Now, got, want)
			}
		})
	}
}

// TestChaosSnapshotRoundTrip snapshots every algorithm mid-outage — after
// the first failure has been applied but before its repair — pushes the
// snapshot through its JSON encoding into a fresh session, and requires the
// restored run to finish with a Result deep-equal to the uninterrupted one.
func TestChaosSnapshotRoundTrip(t *testing.T) {
	for _, name := range append(Names(), "EASY-M", "Delayed-LOS-M") {
		name := name
		t.Run(name, func(t *testing.T) {
			a := MustByName(name)
			seed := int64(7)
			variant := chaosVariant{}
			if strings.HasSuffix(name, "-M") {
				// The -M rows round-trip the malleable state: job bounds,
				// rescaled requirements and the v3 config-match fields.
				variant = chaosVariant{malleable: true, overhead: 3}
			}
			hetero := a.New(Point{Cs: 5}).Heterogeneous()
			w := chaosWorkload(t, hetero, false, variant, seed)

			run := func(until bool) (*engine.Session, *engine.Result) {
				s, err := engine.New(chaosConfig(a, seed, variant))
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Load(w); err != nil {
					t.Fatal(err)
				}
				if until {
					return s, nil
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				r, err := s.Result()
				if err != nil {
					t.Fatal(err)
				}
				return s, r
			}
			_, want := run(false)

			live, _ := run(true)
			ft := live.FaultTrace()
			if ft == nil || len(ft.Events) == 0 {
				t.Fatal("no fault trace generated; MTBF too large for this workload span")
			}
			var mid int64 = -1
			for _, e := range ft.Events {
				if e.Kind == fault.Fail {
					mid = e.Time + 1
					break
				}
			}
			if mid < 0 {
				t.Fatal("trace has no failure event")
			}
			if err := live.RunUntil(mid); err != nil {
				t.Fatal(err)
			}
			sn, err := live.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if len(sn.Machine.Health) == 0 {
				t.Fatalf("snapshot at t=%d carries no group health; not mid-outage", sn.Now)
			}
			var buf bytes.Buffer
			if err := sn.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			decoded, err := engine.DecodeSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := engine.New(chaosConfig(a, seed, variant))
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(decoded); err != nil {
				t.Fatal(err)
			}
			if err := resumed.Run(); err != nil {
				t.Fatal(err)
			}
			got, err := resumed.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored mid-fault run diverged at snapshot t=%d\ngot:  %+v\nwant: %+v",
					sn.Now, got, want)
			}
		})
	}
}

// TestSweepFaultKnobs wires the Point-level fault knobs end to end: a
// two-point sweep (faults off / faults on) must run clean, keep the
// fault-free point byte-identical to a standalone run, report downtime
// and kills only at the faulty point, and seed each faulty run's fault
// model with the run seed.
func TestSweepFaultKnobs(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 60
	base := Point{X: 0, Params: p, Cs: 5}
	faulty := base
	faulty.X = 1
	faulty.Engine.Faults = &engine.FaultConfig{MTBF: 30000, MTTR: 2000,
		Retry: fault.RetryPolicy{Restart: fault.RemainingRuntime}}

	sw := &Sweep{
		ID:         "chaos-knobs",
		Algorithms: []Algorithm{MustByName("EASY")},
		Points:     []Point{base, faulty},
		Seeds:      []int64{3, 4},
	}
	res, err := sw.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	clean, hurt := res.Cells[0][0].Summary, res.Cells[0][1].Summary
	if clean.KilledJobs != 0 || clean.DownProcSeconds != 0 {
		t.Errorf("fault-free point reports faults: %+v", clean)
	}
	if hurt.DownProcSeconds == 0 {
		t.Errorf("faulty point reports no downtime: %+v", hurt)
	}

	// The fault-free point must be bit-identical to a plain engine run:
	// enabling the subsystem elsewhere in the sweep cannot perturb it.
	pp := p
	pp.Seed = 3
	w, err := workload.Generate(pp)
	if err != nil {
		t.Fatal(err)
	}
	a := MustByName("EASY")
	r, err := engine.Run(w, engine.Config{
		M: pp.M, Unit: pp.Unit, Scheduler: a.New(base), ProcessECC: a.ECC,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", res.Cells[0][0].PerSeed[0]), fmt.Sprintf("%+v", r.Summary); got != want {
		t.Errorf("fault-free sweep cell diverged from standalone run\ngot:  %s\nwant: %s", got, want)
	}

	// The faulty point's seed-3 cell must be a standalone run whose fault
	// model is seeded with the run seed: the sweep copies the point's
	// FaultConfig per run and sets Seed, leaving the point untouched.
	fc := *faulty.Engine.Faults
	fc.Seed = 3
	r, err = engine.Run(w, engine.Config{
		M: pp.M, Unit: pp.Unit, Scheduler: a.New(faulty), ProcessECC: a.ECC, Faults: &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", res.Cells[0][1].PerSeed[0]), fmt.Sprintf("%+v", r.Summary); got != want {
		t.Errorf("faulty sweep cell diverged from standalone run at fault seed 3\ngot:  %s\nwant: %s", got, want)
	}
	if faulty.Engine.Faults.Seed != 0 {
		t.Errorf("sweep wrote fault seed %d into the shared point", faulty.Engine.Faults.Seed)
	}
}
