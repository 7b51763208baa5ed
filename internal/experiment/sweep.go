package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/ecc"
	"elastisched/internal/engine"
	"elastisched/internal/metrics"
	"elastisched/internal/workload"
)

// Point is one x-axis position of a sweep: a workload configuration plus
// the scheduler parameters used there.
type Point struct {
	// X is the plotted x value (offered load, C_s, lookahead depth, ...).
	X float64
	// Params generates the workload; Seed is overridden per run.
	Params workload.Params
	// Cs is the maximum-skip-count threshold for the LOS family at this
	// point (<= 0 means core.DefaultCs).
	Cs int
	// Lookahead overrides the DP window (0 = algorithm default).
	Lookahead int
	// Contiguous/Migrate select the allocation policy (BlueGene-style
	// partitioning with optional defragmentation).
	Contiguous bool
	Migrate    bool
	// Faults, when non-nil, injects node-group failures at this point: the
	// failure model, the retry policy for its victims, and the checkpoint
	// policy, exactly as the engine takes them. Each run copies it and sets
	// Seed to the run seed, so the same seed fails the same groups at the
	// same instants under every algorithm.
	Faults *engine.FaultConfig
	// Malleable turns on scheduler-initiated resizing at this point: the
	// engine rescales remaining work through every resize and fault victims
	// with malleable bounds shrink onto their surviving groups instead of
	// dying. Pair it with Params.PM > 0 (so the workload carries bounds)
	// and an -M algorithm variant (so the scheduler proposes resizes).
	Malleable bool
	// ResizeOverhead is the per-resize reconfiguration penalty in sim
	// seconds, charged to the resized job (Malleable only).
	ResizeOverhead int64
}

// EffectiveCs resolves the point's C_s.
func (p Point) EffectiveCs() int {
	if p.Cs > 0 {
		return p.Cs
	}
	return core.DefaultCs
}

// Sweep is one figure panel: a set of algorithms evaluated over a set of
// points, each point averaged over seeds.
type Sweep struct {
	ID     string
	Title  string
	XLabel string

	Algorithms []Algorithm
	Points     []Point
	Seeds      []int64
}

// Cell is the aggregated outcome of one (algorithm, point) pair.
type Cell struct {
	Summary metrics.Summary
	// PerSeed holds the individual per-seed summaries, in seed order, so
	// reports can attach confidence intervals and paired significance
	// tests (the same seed at the same point replays the same workload
	// under every algorithm).
	PerSeed []metrics.Summary
	ECC     ecc.Stats
	// RealizedLoad is the mean offered load of the generated workloads at
	// this point (sanity check against Params.TargetLoad).
	RealizedLoad float64
	Runs         int
	// Events and Cycles total the kernel events dispatched and scheduler
	// cycles executed across the cell's runs (throughput accounting).
	Events uint64
	Cycles uint64
}

// Result holds a completed sweep: Cells[algo][point].
type Result struct {
	Sweep *Sweep
	Cells [][]Cell
	// WorkloadsGenerated counts workload.Generate calls; WorkloadsReused
	// counts runs served from the shared per-(point, seed) cache. Their sum
	// is the total number of runs: every algorithm at the same (point,
	// seed) replays one generated workload.
	WorkloadsGenerated int
	WorkloadsReused    int
}

// wlEntry lazily holds the workload for one (point, seed) pair. The
// sync.Once makes concurrent first users race safely: exactly one
// generates, the rest block and share the result. Workloads are read-only
// to the engine (it clones jobs and commands), so sharing is safe.
type wlEntry struct {
	once sync.Once
	w    *cwf.Workload
	load float64
	err  error
}

// workloadCache shares generated workloads across algorithms: the work unit
// is an (algorithm, point, seed) run, but the workload depends only on
// (point, seed).
type workloadCache struct {
	entries   []wlEntry
	nSeeds    int
	generated atomic.Int64
	reused    atomic.Int64
}

func newWorkloadCache(nPoints, nSeeds int) *workloadCache {
	return &workloadCache{entries: make([]wlEntry, nPoints*nSeeds), nSeeds: nSeeds}
}

func (c *workloadCache) at(pi, si int) *wlEntry { return &c.entries[pi*c.nSeeds+si] }

// get returns the workload for (pi, si), generating it on first use.
func (c *workloadCache) get(pi, si int, params workload.Params) (*cwf.Workload, error) {
	e := c.at(pi, si)
	hit := true
	e.once.Do(func() {
		hit = false
		c.generated.Add(1)
		e.w, e.err = workload.Generate(params)
		if e.err == nil {
			// Validate once here, under the once, so every replaying run can
			// skip it (engine.Config.Prevalidated).
			e.err = e.w.Validate(params.M)
		}
		if e.err == nil {
			e.load = e.w.Load(params.M)
		}
	})
	if hit {
		c.reused.Add(1)
	}
	return e.w, e.err
}

// runConfig builds the engine configuration of one run: algorithm a at
// point pi under the given seed. The point's Faults is shared across
// workers, so each run gets its own copy to seed.
func (s *Sweep) runConfig(pi int, a Algorithm, seed int64) engine.Config {
	pt := &s.Points[pi]
	cfg := engine.Config{
		M:              pt.Params.M,
		Unit:           pt.Params.Unit,
		ProcessECC:     a.ECC,
		MaxECCPerJob:   pt.Params.MaxECCPerJob,
		Contiguous:     pt.Contiguous,
		Migrate:        pt.Migrate,
		Malleable:      pt.Malleable,
		ResizeOverhead: pt.ResizeOverhead,
		Prevalidated:   true,
	}
	if pt.Faults != nil {
		fc := *pt.Faults
		fc.Seed = seed
		cfg.Faults = &fc
	}
	return cfg
}

// runSession is engine.Run on a reused session: Reset (New + Load), Run,
// Result.
func runSession(sess *engine.Session, w *cwf.Workload, cfg engine.Config) (*engine.Result, error) {
	if err := sess.Reset(cfg, w); err != nil {
		return nil, err
	}
	if err := sess.Run(); err != nil {
		return nil, err
	}
	return sess.Result()
}

// Run executes the sweep on up to workers goroutines (0 = GOMAXPROCS).
// The work unit is one (algorithm, point, seed) run; workloads are
// generated once per (point, seed) and shared across algorithms. Every run
// is independent and deterministically seeded, and the reduction walks runs
// in seed order, so the result is identical regardless of worker count or
// completion order.
func (s *Sweep) Run(workers int) (*Result, error) {
	if len(s.Algorithms) == 0 || len(s.Points) == 0 {
		return nil, fmt.Errorf("experiment %s: empty sweep", s.ID)
	}
	// Check every point before generating any workload. The algorithm
	// picks only the scheduler and ECC processing, which no validator reads.
	for pi, pt := range s.Points {
		if err := s.runConfig(pi, Algorithm{}, 0).Validate(); err != nil {
			return nil, fmt.Errorf("experiment %s: point %g: %w", s.ID, pt.X, err)
		}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	nA, nP, nS := len(s.Algorithms), len(s.Points), len(seeds)
	type runOut struct {
		sum    metrics.Summary
		ecc    ecc.Stats
		events uint64
		cycles uint64
		err    error
	}
	runs := make([]runOut, nA*nP*nS)
	slot := func(ai, pi, si int) *runOut { return &runs[(ai*nP+pi)*nS+si] }
	cache := newWorkloadCache(nP, nS)

	type task struct{ ai, pi, si int }
	tasks := make(chan task)
	var wg sync.WaitGroup
	var failed atomic.Bool

	worker := func() {
		defer wg.Done()
		// One session per worker, reset for every run: each run reuses the
		// buffers the previous one finished with instead of allocating its
		// own. The scheduler is still new per run, so no policy state
		// crosses runs, and the session dies with the worker.
		var sess engine.Session
		for t := range tasks {
			out := slot(t.ai, t.pi, t.si)
			params := s.Points[t.pi].Params
			params.Seed = seeds[t.si]
			if failed.Load() {
				// A run already failed: skip the engine run, but still
				// resolve the (memoized) workload-cache entry and record its
				// error, so the deterministic error scan below sees the same
				// first failure at every worker count.
				if _, err := cache.get(t.pi, t.si, params); err != nil {
					out.err = err
				}
				continue
			}
			w, err := cache.get(t.pi, t.si, params)
			if err != nil {
				out.err = err
				failed.Store(true)
				continue
			}
			a := s.Algorithms[t.ai]
			cfg := s.runConfig(t.pi, a, seeds[t.si])
			cfg.Scheduler = a.New(s.Points[t.pi])
			r, err := runSession(&sess, w, cfg)
			if err != nil {
				out.err = err
				failed.Store(true)
				continue
			}
			out.sum, out.ecc, out.events, out.cycles = r.Summary, r.ECC, r.Events, r.Cycles
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	for ai := 0; ai < nA; ai++ {
		for pi := 0; pi < nP; pi++ {
			for si := 0; si < nS; si++ {
				tasks <- task{ai, pi, si}
			}
		}
	}
	close(tasks)
	wg.Wait()

	// Surface the first error in deterministic (algorithm, point, seed)
	// order, regardless of which run hit it first on the wall clock.
	for ai := 0; ai < nA; ai++ {
		for pi := 0; pi < nP; pi++ {
			for si := 0; si < nS; si++ {
				if err := slot(ai, pi, si).err; err != nil {
					return nil, fmt.Errorf("experiment %s, algo %s, point %g: %w",
						s.ID, s.Algorithms[ai].Name, s.Points[pi].X, err)
				}
			}
		}
	}

	// Reduce in seed order: the per-cell aggregation visits runs exactly as
	// the sequential implementation did, so every float accumulates in the
	// same order.
	res := &Result{
		Sweep:              s,
		Cells:              make([][]Cell, nA),
		WorkloadsGenerated: int(cache.generated.Load()),
		WorkloadsReused:    int(cache.reused.Load()),
	}
	for ai := 0; ai < nA; ai++ {
		res.Cells[ai] = make([]Cell, nP)
		for pi := 0; pi < nP; pi++ {
			sums := make([]metrics.Summary, 0, nS)
			var eccStats ecc.Stats
			var loadSum float64
			var events, cycles uint64
			for si := 0; si < nS; si++ {
				out := slot(ai, pi, si)
				sums = append(sums, out.sum)
				eccStats = eccStats.Add(out.ecc)
				loadSum += cache.at(pi, si).load
				events += out.events
				cycles += out.cycles
			}
			res.Cells[ai][pi] = Cell{
				Summary:      metrics.Average(sums),
				PerSeed:      sums,
				ECC:          eccStats,
				RealizedLoad: loadSum / float64(nS),
				Runs:         nS,
				Events:       events,
				Cycles:       cycles,
			}
		}
	}
	return res, nil
}
