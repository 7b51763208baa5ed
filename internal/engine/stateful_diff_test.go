package engine

import (
	"fmt"
	"reflect"
	"testing"

	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/sched"
	"elastisched/internal/trace"
	"elastisched/internal/workload"
)

// coldPolicy forwards Scheduler and sched.Malleable only, hiding any
// Stateful implementation, so the engine never arms the delta feed: the
// wrapped policy runs a full pass every cycle, exactly like the
// pre-Stateful implementation, and an AutoResize wrap rescans for
// proposals every cycle. A policy without proposals answers none, which
// the engine cannot tell from a rigid policy.
type coldPolicy struct{ s sched.Scheduler }

func (c coldPolicy) Name() string                { return c.s.Name() }
func (c coldPolicy) Heterogeneous() bool         { return c.s.Heterogeneous() }
func (c coldPolicy) Schedule(ctx *sched.Context) { c.s.Schedule(ctx) }

func (c coldPolicy) ProposeResizes(ctx *sched.Context) []sched.Resize {
	if m, ok := c.s.(sched.Malleable); ok {
		return m.ProposeResizes(ctx)
	}
	return nil
}

// TestStatefulFeedIsBehaviourNeutral pins the sched.Stateful contract: a
// policy fed engine deltas (settled skips, the delta-maintained base
// profile) must produce the exact placement stream of the same policy
// running a cold pass every cycle. This is the differential check that
// catches fixed-point bugs — e.g. EASY settling after a pass that started
// jobs, which relaxes the recomputed freezes on the engine's verification
// cycle and made EASY-D diverge — without relying on the committed figure
// TSVs to notice. Warm and cold runs share one pass, so a stop that fires
// too early is TestConservativeStopMatchesFullWalk's business.
func TestStatefulFeedIsBehaviourNeutral(t *testing.T) {
	policies := []func() sched.Scheduler{
		func() sched.Scheduler { return &sched.EASY{} },
		func() sched.Scheduler { return &sched.EASY{Ded: true} },
		func() sched.Scheduler { return &sched.Conservative{} },
		func() sched.Scheduler { return &sched.ConservativeD{} },
	}
	scenarios := []struct {
		name string
		mut  func(*workload.Params)
	}{
		{"batch", func(p *workload.Params) { p.TargetLoad = 1.0 }},
		// The fig9 configuration (P_D=0.5, P_S=0.2, load 1.0) at full size:
		// this is the workload family where the EASY-D settle-after-start
		// divergence actually manifested; smaller runs miss it.
		{"heterogeneous", func(p *workload.Params) { p.PD = 0.5; p.PS = 0.2; p.TargetLoad = 1.0 }},
		{"dedicated-heavy", func(p *workload.Params) { p.PD = 0.95; p.TargetLoad = 0.9 }},
		{"elastic-hetero", func(p *workload.Params) { p.PD = 0.5; p.PE = 0.2; p.PR = 0.1; p.TargetLoad = 1.0 }},
		// Overestimated runtimes: jobs finish before their kill-by time,
		// which hands capacity back under the reservations CONS/CONS-D keep.
		{"inexact", func(p *workload.Params) { p.EstUniformMax = 5; p.TargetLoad = 1.4 }},
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= 3; seed++ {
			p := workload.DefaultParams()
			p.Seed = seed
			sc.mut(&p)
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			for _, mk := range policies {
				if w.NumDedicated() > 0 && !mk().Heterogeneous() {
					continue
				}
				warm := runTraced(t, w, mk())
				cold := runTraced(t, w, coldPolicy{s: mk()})
				name := mk().Name()
				if len(warm) != len(cold) {
					t.Fatalf("%s/%s seed %d: %d spans with delta feed vs %d cold",
						sc.name, name, seed, len(warm), len(cold))
				}
				for i := range warm {
					if !reflect.DeepEqual(warm[i], cold[i]) {
						t.Fatalf("%s/%s seed %d: span %d diverges: with feed %+v, cold %+v",
							sc.name, name, seed, i, warm[i], cold[i])
					}
				}
			}
		}
	}
}

// TestStatefulFeedChaosMatrix extends the behaviour-neutrality check to
// every source of deltas at once: node-group faults under each checkpoint
// policy (a checkpoint retimes its job by the checkpoint cost), scheduler
// resizes, ECC extend/reduce and grow/shrink commands, and contiguous
// placement. Each cell runs a policy warm (delta feed armed: settled skips
// with their retime horizons, AutoResize's quiet state) and cold, and
// requires identical spans and identical Results, cycle and event counts
// included.
func TestStatefulFeedChaosMatrix(t *testing.T) {
	var policies []func() sched.Scheduler
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return &sched.EASY{} },
		func() sched.Scheduler { return &sched.EASY{Ded: true} },
		func() sched.Scheduler { return &sched.Conservative{} },
		func() sched.Scheduler { return &sched.ConservativeD{} },
		func() sched.Scheduler { return core.NewLOS(false) },
		func() sched.Scheduler { return core.NewLOS(true) },
		func() sched.Scheduler { return core.NewDelayedLOS(3) },
	} {
		policies = append(policies, mk, func() sched.Scheduler { return sched.NewAutoResize(mk()) })
	}
	faults := []struct {
		name string
		cfg  *FaultConfig // nil: no fault injection
	}{
		{"no-faults", nil},
		{"ckpt-none", &FaultConfig{}},
		{"periodic", &FaultConfig{Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 900, CheckpointCost: 300}},
		{"daly", &FaultConfig{Checkpoint: fault.CheckpointDaly, CheckpointCost: 300}},
		{"on-resize", &FaultConfig{Checkpoint: fault.CheckpointOnResize, CheckpointCost: 300}},
	}
	cells := 0
	for _, malleable := range []bool{false, true} {
		for _, contiguous := range []bool{false, true} {
			for fi, fc := range faults {
				if fc.cfg != nil && fc.cfg.Checkpoint == fault.CheckpointOnResize && !malleable {
					continue
				}
				for pi, newPolicy := range policies {
					for _, seed := range []int64{int64(1 + fi + 5*pi), int64(101 + fi + 5*pi)} {
						w := chaosMatrixWorkload(t, seed, newPolicy().Heterogeneous(), malleable)
						cfg := Config{
							M: 320, Unit: 32, ProcessECC: true, Paranoid: true,
							Malleable: malleable, Contiguous: contiguous, ResizeOverhead: 5,
						}
						if fc.cfg != nil {
							f := *fc.cfg
							f.MTBF, f.MTTR, f.Seed = 30000, 2000, seed
							f.Retry = fault.RetryPolicy{Mode: fault.Requeue, Restart: fault.RemainingRuntime, Backoff: 20}
							cfg.Faults = &f
						}
						name := fmt.Sprintf("%s malleable=%v contiguous=%v %s seed %d",
							newPolicy().Name(), malleable, contiguous, fc.name, seed)
						requireWarmMatchesCold(t, name, w, cfg, newPolicy)
						cells++
					}
				}
			}
		}
	}
	t.Logf("%d cells warm and cold", cells)
}

// requireWarmMatchesCold runs one cell with the delta feed armed and cold,
// and fails on the first differing span or Result field.
func requireWarmMatchesCold(t *testing.T, name string, w *cwf.Workload, cfg Config, newPolicy func() sched.Scheduler) {
	t.Helper()
	run := func(s sched.Scheduler) ([]trace.Span, *Result) {
		rec := trace.NewRecorder(cfg.M, cfg.Unit)
		cfg.Scheduler, cfg.Observer = s, rec
		r, err := Run(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rec.Spans(), r
	}
	warmSpans, warm := run(newPolicy())
	coldSpans, cold := run(coldPolicy{s: newPolicy()})
	if len(warmSpans) != len(coldSpans) {
		t.Fatalf("%s: %d spans with delta feed vs %d cold", name, len(warmSpans), len(coldSpans))
	}
	for i := range warmSpans {
		if !reflect.DeepEqual(warmSpans[i], coldSpans[i]) {
			t.Fatalf("%s: span %d diverges: with feed %+v, cold %+v", name, i, warmSpans[i], coldSpans[i])
		}
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("%s: results diverge:\nwith feed %+v\ncold      %+v", name, warm, cold)
	}
}

// chaosMatrixWorkload is a short, loaded trace with ECC extend/reduce
// commands (grow/shrink too on odd seeds), dedicated jobs for the
// heterogeneous policies, and malleable bounds when resizing is on.
func chaosMatrixWorkload(t *testing.T, seed int64, hetero, malleable bool) *cwf.Workload {
	t.Helper()
	p := workload.DefaultParams()
	p.Seed = seed
	p.N = 150
	p.TargetLoad = 1.0
	p.PE, p.PR = 0.2, 0.1
	p.SizeECC = seed%2 == 1
	if hetero {
		p.PD = 0.3
	}
	if malleable {
		p.PM = 0.7
	}
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// fullWalkCons is the exhaustive conservative reference: every cycle it
// rebuilds the capacity profile from the active list and fits every queued
// job — no settled skip, no delta feed, no stop before the queue's end.
type fullWalkCons struct{ ded bool }

func (r fullWalkCons) Name() string        { return "full-walk" }
func (r fullWalkCons) Heterogeneous() bool { return r.ded }

func (r fullWalkCons) Schedule(ctx *sched.Context) {
	if r.ded && sched.MoveDueDedicated(ctx, 0) {
		return
	}
	M := ctx.M()
	prof := new(sched.Profile)
	prof.Rebuild(ctx.Now, M, ctx.Active)
	if r.ded {
		for _, d := range ctx.Dedicated.Jobs() {
			if d.Size > M {
				continue
			}
			at := d.ReqStart
			if !prof.CanPlace(at, d.Dur, d.Size) {
				at = prof.EarliestFit(at, d.Dur, d.Size)
			}
			prof.Reserve(at, at+d.Dur, d.Size)
		}
	}
	for _, j := range append([]*job.Job(nil), ctx.Batch.Jobs()...) {
		if j.Size > M {
			return
		}
		at := prof.EarliestFit(ctx.Now, j.Dur, j.Size)
		prof.Reserve(at, at+j.Dur, j.Size)
		if at == ctx.Now {
			ctx.Start(j)
		}
	}
}

// TestConservativeStopMatchesFullWalk checks CONS/CONS-D's demand-driven
// stop and plan reuse against fullWalkCons in overloaded sessions (load
// 1.4, where the queue grows and almost every pass stops early or resumes a
// plan), with ECCs retiming and resizing running jobs, early completions
// and dense dedicated arrivals: the start streams must be identical, span
// by span.
func TestConservativeStopMatchesFullWalk(t *testing.T) {
	scenarios := []struct {
		name string
		mut  func(*workload.Params)
	}{
		{"batch", func(p *workload.Params) {}},
		{"heterogeneous", func(p *workload.Params) { p.PD = 0.3 }},
		{"elastic", func(p *workload.Params) { p.PE = 0.2; p.PR = 0.1 }},
		// Early completions free capacity under the kept reservation plan.
		{"inexact", func(p *workload.Params) { p.PD = 0.3; p.EstUniformMax = 5 }},
		// elastibench's deep-queue trace shape: the plan outlives many passes.
		{"deep-queue", func(p *workload.Params) { p.N = 1200; p.PD = 0.3; p.PE = 0.2; p.PR = 0.1 }},
		// Dedicated arrivals and due moves dominate the plan's deltas.
		{"dedicated-heavy", func(p *workload.Params) { p.PD = 0.8 }},
	}
	run := func(w *cwf.Workload, s sched.Scheduler) []trace.Span {
		rec := trace.NewRecorder(320, 32)
		if _, err := Run(w, Config{M: 320, Unit: 32, Scheduler: s, ProcessECC: true, Observer: rec, Paranoid: true}); err != nil {
			t.Fatal(err)
		}
		return rec.Spans()
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= 3; seed++ {
			p := workload.DefaultParams()
			p.Seed = seed
			p.TargetLoad = 1.4
			sc.mut(&p)
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			for _, ded := range []bool{false, true} {
				if w.NumDedicated() > 0 && !ded {
					continue
				}
				var s sched.Scheduler = &sched.Conservative{}
				if ded {
					s = &sched.ConservativeD{}
				}
				got, want := run(w, s), run(w, fullWalkCons{ded: ded})
				if len(got) != len(want) {
					t.Fatalf("%s/%s seed %d: %d spans, full walk %d", sc.name, s.Name(), seed, len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s/%s seed %d: span %d diverges: %+v, full walk %+v",
							sc.name, s.Name(), seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}
