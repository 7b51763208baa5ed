package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"elastisched/internal/audit"
	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/dispatch"
	"elastisched/internal/engine"
	"elastisched/internal/experiment"
	"elastisched/internal/fault"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
	"elastisched/internal/trace"
	"elastisched/internal/workload"
)

// runner is one workload instantiated at a seed. measure calls setup and
// run once per pass, timing each; check replaces run once per process, in
// the untimed verify phase; reset drops the pass's inputs and results.
type runner interface {
	// setup builds the inputs of one pass.
	setup(tr *tracer) error
	// run simulates the inputs setup built and records the outcome in out.
	run(tr *tracer, out *passOut) error
	// check is run with the audit oracle or the partition invariant
	// attached; it records the same outcome run would.
	check(out *passOut) error
	reset()
}

// passOut is what one pass produced.
type passOut struct {
	jobs int // simulated jobs completed
	runs int // simulation runs executed

	// digested is encoded, in order, into the pass digest.
	digested []any
	outcomes []outcome
	counts   counts
	// lat collects Session.Step latencies on the single-session workloads.
	lat []time.Duration
}

// outcome is the simulated result of one run, recorded in golden.json so a
// digest mismatch can be read.
type outcome struct {
	Label       string  `json:"label"`
	Jobs        int     `json:"jobs"`
	Events      uint64  `json:"events"`
	Cycles      uint64  `json:"cycles"`
	MeanWait    float64 `json:"mean_wait"`
	Utilization float64 `json:"utilization"`
}

// counts are the outcome counters a pass reports; each repeats exactly at a
// given seed.
type counts struct {
	events, cycles                       uint64
	kills, checkpoints, schedulerResizes int
	lostWork                             float64
	eccTotal, eccApplied                 int
	epochs, steals                       int
	workloadsGenerated, workloadsReused  int
}

// addSummary folds a run's fault and malleability accounting into c.
func (c *counts) addSummary(s metrics.Summary) {
	c.kills += s.KilledJobs
	c.checkpoints += s.CheckpointsTaken
	c.schedulerResizes += s.SchedulerResizes
	c.lostWork += s.LostWorkSeconds
}

// addEngine folds one engine run into c.
func (c *counts) addEngine(r *engine.Result) {
	c.events += r.Events
	c.cycles += r.Cycles
	c.eccTotal += r.ECC.Total
	c.eccApplied += r.ECC.Applied
	c.addSummary(r.Summary)
}

// workloadDef names a workload and builds its runner. small selects the
// reduced size the smoke tests run.
type workloadDef struct {
	name  string
	build func(seed int64, small bool) runner
}

// workloads are the benchmark's workloads, in the order -workload all runs
// them. README.md and BENCHMARK.json say why each exists.
var workloads = []workloadDef{
	{"paper-sweep", newPaperSweep},
	{"deep-queue", newDeepQueue},
	{"faults-malleable", newFaultsMalleable},
	{"sharded-static", newShardedStatic},
	{"sharded-steal", newShardedSteal},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v, or all)", name, names)
}

// derive maps the benchmark seed and a stream number to an independent
// generator seed (splitmix64), so each random input of a workload moves
// with -seed without correlating with the others.
func derive(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// generate runs workload.Generate and Validate under the tracer.
func generate(tr *tracer, p workload.Params) (*cwf.Workload, error) {
	var w *cwf.Workload
	err := tr.timed("workload.Generate", layerGenerate, func() (err error) {
		w, err = workload.Generate(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := validate(tr, w, p.M); err != nil {
		return nil, err
	}
	return w, nil
}

func validate(tr *tracer, w *cwf.Workload, m int) error {
	return tr.timed("cwf.Validate", layerValidate, func() error { return w.Validate(m) })
}

// --- paper-sweep ---------------------------------------------------------

// paperSweep runs every panel of the paper's Figures 1 and 5-11 through
// Sweep.Run on one worker.
type paperSweep struct {
	panels []*experiment.Sweep
	// res keeps the pass's results reachable until reset, so live_heap_mb
	// counts them.
	res []*experiment.Result
}

func newPaperSweep(seed int64, small bool) runner {
	ids := []string{"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	if small {
		ids = []string{"fig7", "fig9"}
	}
	ps := &paperSweep{}
	for _, id := range ids {
		e, err := experiment.ByID(id)
		if err != nil {
			panic(err) // the IDs above are the registry's own
		}
		for _, p := range e.Panels {
			sp := *p
			// The default seed 1 keeps the seeds the committed figures use.
			sp.Seeds = make([]int64, len(p.Seeds))
			for i, s := range p.Seeds {
				sp.Seeds[i] = s + (seed-1)*1000
			}
			if small {
				sp.Seeds = sp.Seeds[:1]
				sp.Points = sp.Points[:2]
			}
			ps.panels = append(ps.panels, &sp)
		}
	}
	return ps
}

// setup generates and validates the sweep's (point, seed) grid: the inputs
// Sweep.Run builds again inside every pass, measured on their own.
func (ps *paperSweep) setup(tr *tracer) error {
	for _, sp := range ps.panels {
		for _, pt := range sp.Points {
			for _, s := range sp.Seeds {
				p := pt.Params
				p.Seed = s
				if _, err := generate(tr, p); err != nil {
					return fmt.Errorf("%s: %w", sp.ID, err)
				}
			}
		}
	}
	return nil
}

func (ps *paperSweep) run(tr *tracer, out *passOut) error {
	ps.res = ps.res[:0]
	for _, p := range ps.panels {
		sp := *p
		if tr != nil {
			sp.Algorithms = make([]experiment.Algorithm, len(p.Algorithms))
			for i, a := range p.Algorithms {
				inner := a.New
				a.New = func(pt experiment.Point) sched.Scheduler { return tr.wrap(a.Name, inner(pt)) }
				sp.Algorithms[i] = a
			}
		}
		var res *experiment.Result
		err := tr.timed("experiment.Sweep.Run "+sp.ID, layerSweep, func() (err error) {
			res, err = sp.Run(1)
			return err
		})
		if err != nil {
			return err
		}
		ps.res = append(ps.res, res)
		out.counts.workloadsGenerated += res.WorkloadsGenerated
		out.counts.workloadsReused += res.WorkloadsReused
		for ai, row := range res.Cells {
			for pi, c := range row {
				out.runs += c.Runs
				out.counts.events += c.Events
				out.counts.cycles += c.Cycles
				out.counts.eccTotal += c.ECC.Total
				out.counts.eccApplied += c.ECC.Applied
				for _, s := range c.PerSeed {
					out.jobs += s.JobsFinished
					out.counts.addSummary(s)
				}
				out.digested = append(out.digested, c.Summary, c.PerSeed)
				out.outcomes = append(out.outcomes, outcome{
					Label:  fmt.Sprintf("%s/%s/x=%g", sp.ID, sp.Algorithms[ai].Name, sp.Points[pi].X),
					Jobs:   c.Summary.Jobs,
					Events: c.Events, Cycles: c.Cycles,
					MeanWait: c.Summary.MeanWait, Utilization: c.Summary.Utilization,
				})
			}
		}
	}
	return nil
}

// check is a plain run: the sweep's correctness evidence is its digest.
func (ps *paperSweep) check(out *passOut) error { return ps.run(nil, out) }

func (ps *paperSweep) reset() {
	clear(ps.res)
	ps.res = ps.res[:0]
}

// --- single-session workloads --------------------------------------------

// sessionBench replays generated traces under each of its policies, one
// fresh engine session per (trace, policy), driven instant by instant
// through Session.Step.
type sessionBench struct {
	traces []workload.Params
	point  experiment.Point
	algos  []experiment.Algorithm
	// engineCfg returns the engine configuration for one policy on trace
	// t, without the scheduler.
	engineCfg func(a experiment.Algorithm, t int) engine.Config

	ws       []*cwf.Workload
	sessions []session
	results  []*engine.Result // reachable until reset, as paperSweep.res
}

// session is one (trace, policy) replay.
type session struct {
	*engine.Session
	trace int
	algo  experiment.Algorithm
	rec   *trace.Recorder // span recorder of the verify phase, else nil
}

func (s session) label() string { return fmt.Sprintf("%s#%d", s.algo.Name, s.trace) }

// newDeepQueue replays traces offered at 1.4 times the machine's capacity:
// the queue grows at a steady rate, where at load 1.0 its depth would be a
// random walk. CONS-D's cost grows with the cube of trace length and varies
// by 12-15% from one trace to the next, so a pass replays twenty-four
// 1200-job traces rather than one long one: their sum varies between seeds
// a fifth as much, at a lower cost.
func newDeepQueue(seed int64, small bool) runner {
	n, traces := 1200, 24
	if small {
		n, traces = 300, 2
	}
	b := &sessionBench{
		algos: []experiment.Algorithm{experiment.MustByName("CONS-D"), experiment.MustByName("Hybrid-LOS-E")},
	}
	for t := 0; t < traces; t++ {
		p := workload.DefaultParams()
		p.Seed = derive(seed, uint64(t+1))
		p.N = n
		p.TargetLoad = 1.4
		p.PD, p.PE, p.PR = 0.3, 0.2, 0.1
		b.traces = append(b.traces, p)
	}
	b.point = experiment.Point{Cs: experiment.CsFor(b.traces[0].PS)}
	b.engineCfg = func(a experiment.Algorithm, t int) engine.Config {
		p := b.traces[t]
		return engine.Config{M: p.M, Unit: p.Unit, ProcessECC: a.ECC, Prevalidated: true}
	}
	return b
}

// newFaultsMalleable replays four 2500-job traces, each under its own
// fault trace, for the same reason deep-queue replays several.
func newFaultsMalleable(seed int64, small bool) runner {
	n, traces := 2500, 4
	if small {
		n, traces = 300, 2
	}
	b := &sessionBench{
		algos: []experiment.Algorithm{experiment.MustByName("EASY-E-M"), experiment.MustByName("Delayed-LOS-E-M")},
	}
	for t := 0; t < traces; t++ {
		p := workload.DefaultParams()
		p.Seed = derive(seed, uint64(2*t+1))
		p.N = n
		p.TargetLoad = 0.9
		p.PM = 1
		p.PE, p.PR = 0.2, 0.1
		b.traces = append(b.traces, p)
	}
	b.point = experiment.Point{Cs: experiment.CsFor(b.traces[0].PS)}
	b.engineCfg = func(a experiment.Algorithm, t int) engine.Config {
		p := b.traces[t]
		return engine.Config{
			M: p.M, Unit: p.Unit, ProcessECC: a.ECC, Prevalidated: true,
			Malleable: true, ResizeOverhead: 60,
			Faults: &engine.FaultConfig{
				MTBF: 40000, MTTR: 2000, Seed: derive(seed, uint64(2*t+2)),
				Retry:          fault.RetryPolicy{Mode: fault.Requeue, Restart: fault.RemainingRuntime, Backoff: 30},
				Checkpoint:     fault.CheckpointDaly,
				CheckpointCost: 120,
			},
		}
	}
	return b
}

// open builds one loaded session per (trace, policy), each with a span
// recorder attached when audited.
func (b *sessionBench) open(tr *tracer, audited bool) error {
	b.sessions = b.sessions[:0]
	for t, w := range b.ws {
		for _, a := range b.algos {
			cfg := b.engineCfg(a, t)
			cfg.Scheduler = tr.wrap(a.Name, a.New(b.point))
			ses := session{trace: t, algo: a}
			if audited {
				ses.rec = trace.NewRecorder(cfg.M, cfg.Unit)
				cfg.Observer = ses.rec
			}
			err := tr.timed("engine.New+Load "+ses.label(), layerLoad, func() (err error) {
				if ses.Session, err = engine.New(cfg); err != nil {
					return err
				}
				return ses.Load(w)
			})
			if err != nil {
				return fmt.Errorf("%s: %w", ses.label(), err)
			}
			b.sessions = append(b.sessions, ses)
		}
	}
	return nil
}

func (b *sessionBench) setup(tr *tracer) error {
	b.ws = b.ws[:0]
	for _, p := range b.traces {
		w, err := generate(tr, p)
		if err != nil {
			return err
		}
		b.ws = append(b.ws, w)
	}
	return b.open(tr, false)
}

func (b *sessionBench) run(tr *tracer, out *passOut) error {
	b.results = b.results[:0]
	for _, s := range b.sessions {
		id := tr.begin("session " + s.label())
		instants := len(out.lat)
		t := time.Now()
		for {
			ok, err := s.Step()
			now := time.Now()
			if err != nil {
				tr.charge(id, layerStep)
				return fmt.Errorf("%s: %w", s.label(), err)
			}
			if !ok {
				break
			}
			out.lat = append(out.lat, now.Sub(t))
			t = now
		}
		tr.charge(id, layerStep)
		if tr != nil {
			tr.instants += int64(len(out.lat) - instants)
		}
		var r *engine.Result
		err := tr.timed("Session.Result "+s.label(), layerSummary, func() (err error) {
			r, err = s.Result()
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", s.label(), err)
		}
		b.record(s, r, out)
	}
	return nil
}

// record adds one finished session's result to the pass outcome.
func (b *sessionBench) record(s session, r *engine.Result, out *passOut) {
	b.results = append(b.results, r)
	out.runs++
	out.jobs += r.Summary.JobsFinished
	out.counts.addEngine(r)
	out.digested = append(out.digested, r.Summary)
	out.outcomes = append(out.outcomes, outcome{
		Label: s.label(), Jobs: r.Summary.Jobs, Events: r.Events, Cycles: r.Cycles,
		MeanWait: r.Summary.MeanWait, Utilization: r.Summary.Utilization,
	})
}

// check runs every session with a span recorder attached and certifies
// each schedule with the audit oracle, under the fault, checkpoint and
// malleability rules the run was configured with.
func (b *sessionBench) check(out *passOut) error {
	if err := b.open(nil, true); err != nil {
		return err
	}
	for _, s := range b.sessions {
		if err := s.Run(); err != nil {
			return fmt.Errorf("%s: %w", s.label(), err)
		}
		r, err := s.Result()
		if err != nil {
			return fmt.Errorf("%s: %w", s.label(), err)
		}
		b.record(s, r, out)
		w, cfg := b.ws[s.trace], b.engineCfg(s.algo, s.trace)
		opt := audit.Options{
			M: cfg.M, Unit: cfg.Unit,
			Elastic:        s.algo.ECC && len(w.Commands) > 0,
			SizeElastic:    s.algo.ECC && w.SizeCommandCount() > 0,
			Malleable:      cfg.Malleable,
			ResizeOverhead: cfg.ResizeOverhead,
		}
		if fc := cfg.Faults; fc != nil {
			opt.Faults = s.FaultTrace()
			opt.Retry = fc.Retry
			opt.Checkpoint = fc.Checkpoint
			opt.CheckpointInterval = fc.ResolvedCheckpointInterval()
			opt.CheckpointCost = fc.CheckpointCost
			opt.MTBF = fc.MTBF
		}
		if err := audit.Check(w, s.rec.Spans(), opt).Error(); err != nil {
			return fmt.Errorf("%s: %w", s.label(), err)
		}
		if got := r.Summary.JobsFinished + r.Summary.DroppedJobs; got != len(w.Jobs) {
			return fmt.Errorf("%s: %d jobs finished or dropped of %d submitted", s.label(), got, len(w.Jobs))
		}
	}
	return nil
}

func (b *sessionBench) reset() {
	clear(b.ws)
	clear(b.sessions)
	clear(b.results)
	b.ws, b.sessions, b.results = b.ws[:0], b.sessions[:0], b.results[:0]
}

// --- sharded workloads ---------------------------------------------------

// shardedBench dispatches one zipf-skewed trace over per-cluster LOS-D
// sessions through dispatch.Run.
type shardedBench struct {
	clusters int
	params   workload.Params
	skewSeed int64
	route    string
	steal    bool

	w   *cwf.Workload
	res *dispatch.Result
}

// clusterM is the per-cluster machine, the paper's geometry.
const clusterM, clusterUnit = 320, 32

func newSharded(seed int64, small bool, route string, steal bool) *shardedBench {
	clusters := 64
	if small {
		clusters = 4
	}
	p := workload.DefaultParams()
	p.N = 500 * clusters
	p.Seed = derive(seed, 1)
	return &shardedBench{clusters: clusters, params: p, skewSeed: derive(seed, 2), route: route, steal: steal}
}

func newShardedStatic(seed int64, small bool) runner {
	return newSharded(seed, small, dispatch.RouteLeastWork, false)
}

func newShardedSteal(seed int64, small bool) runner {
	return newSharded(seed, small, dispatch.RouteRoundRobin, true)
}

// setup generates the trace and applies the skew transform.
func (b *shardedBench) setup(tr *tracer) error {
	var w *cwf.Workload
	err := tr.timed("workload.Generate", layerGenerate, func() (err error) {
		w, err = workload.Generate(b.params)
		return err
	})
	if err != nil {
		return err
	}
	id := tr.begin("skew")
	skew(w, b.clusters, rand.New(rand.NewSource(b.skewSeed)))
	tr.end(id)
	if err := validate(tr, w, clusterM); err != nil {
		return err
	}
	b.w = w
	return nil
}

// The skew transform, after the dispatcher's routing benchmarks: duration
// multipliers 1+k with k zipf-distributed (exponent zipfS over [0, zipfMax])
// make a few machine-wide giants (k >= giantK) carry most of the work.
const (
	zipfS        = 2.5
	zipfMax      = 100000
	giantK       = 50
	giantStretch = 8
	skewLoad     = 0.10
)

// zipfNorm is the normalising constant of the skew distribution.
var zipfNorm = sync.OnceValue(func() float64 {
	var z float64
	for k := 0; k <= zipfMax; k++ {
		z += math.Pow(1+float64(k), -zipfS)
	}
	return z
})

// zipfQuantiles returns n multipliers k at the distribution's quantiles
// (i+0.5)/n, ascending: the histogram n independent draws would have on
// average, without their sampling noise.
func zipfQuantiles(n int) []uint64 {
	out := make([]uint64, n)
	z := zipfNorm()
	k, cdf := 0, 1/z
	for i := range out {
		u := (float64(i) + 0.5) / float64(n)
		for cdf < u && k < zipfMax {
			k++
			cdf += math.Pow(1+float64(k), -zipfS) / z
		}
		out[i] = uint64(k)
	}
	return out
}

// skew stretches job durations by zipf multipliers and rescales arrivals
// so the offered load over the arrival window is skewLoad: a balanced
// split stays under-loaded, and any backlog comes from giants colliding on
// one cluster. The multipliers are the distribution's quantiles dealt out
// by a seeded shuffle, and a giant's duration derives from the trace's mean
// estimate rather than its own: drawing either at random lets the one
// largest giant decide the whole run's length, so two seeds would measure
// different regimes rather than different instances of one.
func skew(w *cwf.Workload, clusters int, rng *rand.Rand) {
	mult := zipfQuantiles(len(w.Jobs))
	rng.Shuffle(len(mult), func(i, k int) { mult[i], mult[k] = mult[k], mult[i] })
	var mean float64
	for _, j := range w.Jobs {
		mean += float64(j.Dur)
	}
	mean /= float64(len(w.Jobs))
	var area float64
	first, last := w.Jobs[0].Arrival, w.Jobs[0].Arrival
	for i, j := range w.Jobs {
		if k := mult[i]; k >= giantK {
			j.Size = clusterM
			j.Dur = int64(giantStretch * float64(1+k) * mean)
		} else {
			j.Dur *= int64(1 + k)
		}
		area += float64(j.Size) * float64(j.EffectiveRuntime())
		first, last = min(first, j.Arrival), max(last, j.Arrival)
	}
	scale := area / (skewLoad * float64(clusterM*clusters) * float64(last-first))
	for _, j := range w.Jobs {
		j.Arrival = int64(float64(j.Arrival) * scale)
	}
	for i := range w.Commands {
		w.Commands[i].Issue = int64(float64(w.Commands[i].Issue) * scale)
	}
}

// epoch is one barrier per 1/5000th of the trace's horizon, its latest
// arrival plus estimate: fine enough that a blocked giant waits a
// negligible slice of its runtime before it can migrate. Cutting the
// horizon rather than the arrival span keeps the barrier count near 5000
// on every seed; the drain after the last arrival would otherwise set it.
func (b *shardedBench) epoch() int64 {
	var last int64
	for _, j := range b.w.Jobs {
		if e := j.Arrival + j.Dur; e > last {
			last = e
		}
	}
	if e := last / 5000; e > 0 {
		return e
	}
	return 1
}

func (b *shardedBench) run(tr *tracer, out *passOut) error {
	cfg := dispatch.Config{
		Clusters: b.clusters,
		Workers:  1,
		Engine:   engine.Config{M: clusterM, Unit: clusterUnit, Prevalidated: true},
		NewScheduler: func() sched.Scheduler {
			return tr.wrap("LOS-D", core.NewLOS(true))
		},
		Route: b.route,
	}
	if b.steal {
		cfg.Epoch = b.epoch()
		cfg.Steal = true
	}
	var res *dispatch.Result
	err := tr.timed("dispatch.Run", layerDispatch, func() (err error) {
		res, err = dispatch.Run(b.w, cfg)
		return err
	})
	if err != nil {
		return err
	}
	b.res = res
	out.runs++
	out.jobs += res.Merged.JobsFinished
	out.counts.epochs += res.Epochs
	out.counts.steals += res.Steals
	out.digested = append(out.digested, res.Merged)
	out.outcomes = append(out.outcomes, outcome{
		Label: "merged", Jobs: res.Merged.Jobs, Events: res.Events, Cycles: res.Cycles,
		MeanWait: res.Merged.MeanWait, Utilization: res.Merged.Utilization,
	})
	for _, c := range res.Clusters {
		out.counts.addEngine(c.Result)
		out.digested = append(out.digested, c.Result.Summary)
	}
	return nil
}

// check runs the dispatch and verifies the partition invariant: every
// submitted job is routed to exactly one cluster and started and finished
// exactly once there, and the per-cluster counts sum to the trace size.
func (b *shardedBench) check(out *passOut) error {
	if err := b.run(nil, out); err != nil {
		return err
	}
	n := len(b.w.Jobs)
	var routed, started, finished int
	for _, c := range b.res.Clusters {
		routed += c.Jobs
		started += c.Result.Summary.JobsStarted
		finished += c.Result.Summary.JobsFinished
	}
	if routed != n || started != n || finished != n || b.res.Merged.JobsFinished != n {
		return fmt.Errorf("partition: %d jobs, %d routed, %d started, %d finished per cluster, %d merged",
			n, routed, started, finished, b.res.Merged.JobsFinished)
	}
	if b.steal {
		if len(b.res.Owners) != n {
			return fmt.Errorf("partition: %d owners for %d jobs", len(b.res.Owners), n)
		}
		for _, j := range b.w.Jobs {
			if c, ok := b.res.Owners[j.ID]; !ok || c < 0 || c >= b.clusters {
				return fmt.Errorf("partition: job %d has no owning cluster", j.ID)
			}
		}
	}
	return nil
}

func (b *shardedBench) reset() {
	b.w = nil
	b.res = nil
}
