package experiment

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/dispatch"
	"elastisched/internal/ecc"
	"elastisched/internal/engine"
	"elastisched/internal/fault"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
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
	// MTBF/MTTR enable fault injection at this point (per node group, sim
	// seconds; MTBF <= 0 disables it). Each run samples its fault trace
	// from the run seed, so the same seed fails the same groups at the
	// same instants under every algorithm.
	MTBF float64
	MTTR float64
	// Retry is the policy applied to failure victims when faults are on.
	Retry fault.RetryPolicy
	// CheckpointPolicy lets running batch jobs save restart state when
	// faults are on: kills then restart from the last checkpoint instead
	// of the Retry.Restart binary. CheckpointInterval is the periodic
	// policy's interval I; CheckpointCost is the charge C per checkpoint
	// (and per restart-from-checkpoint). See fault.CheckpointPolicy.
	CheckpointPolicy   fault.CheckpointPolicy
	CheckpointInterval int64
	CheckpointCost     int64
	// Malleable turns on scheduler-initiated resizing at this point: the
	// engine rescales remaining work through every resize and fault victims
	// with malleable bounds shrink onto their surviving groups instead of
	// dying. Pair it with Params.PM > 0 (so the workload carries bounds)
	// and an -M algorithm variant (so the scheduler proposes resizes).
	Malleable bool
	// ResizeOverhead is the per-resize reconfiguration penalty in sim
	// seconds, charged to the resized job (Malleable only).
	ResizeOverhead int64
	// Clusters, when above 1, evaluates this point on the sharded
	// dispatcher (dispatch.Run): the workload is split over Clusters
	// per-cluster machines of Params.M processors and the merged global
	// summary fills the cell. Route names the routing policy ("" =
	// round-robin); it is rejected when Clusters <= 1.
	Clusters int
	Route    string
	// Epoch, Steal, and Affinity select the dispatcher's dynamic epoch
	// protocol at this point (barrier-synchronized stepping, queue-digest
	// exchange, work stealing, affinity pinning); they mirror the
	// dispatch.Config fields of the same names. Steal, Affinity, and the
	// "feedback" route all need Epoch > 0.
	Epoch    int64
	Steal    bool
	Affinity int
}

// EffectiveCs resolves the point's C_s.
func (p Point) EffectiveCs() int {
	if p.Cs > 0 {
		return p.Cs
	}
	return core.DefaultCs
}

// Typed point-validation errors, testable with errors.Is alongside the
// fault package's (ErrNonPositiveMTBF, ErrNegativeMTTR,
// ErrIntervalWithoutPeriodic, ...).
var (
	// ErrNegativeResizeOverhead rejects a negative per-resize penalty.
	ErrNegativeResizeOverhead = errors.New("experiment: resize overhead must not be negative")
	// ErrCheckpointWithoutFaults rejects a checkpoint policy on a point
	// with fault injection off — there is nothing to restart from.
	ErrCheckpointWithoutFaults = errors.New("experiment: checkpoint policy set without fault injection (MTBF <= 0)")
)

// ValidateRobustness checks the point's fault and elasticity knobs up
// front — before any workload is generated — wrapping the fault package's
// typed errors so callers can test with errors.Is. MTBF <= 0 (faults off)
// is legal; NaN or negative rates, a negative resize overhead or
// checkpoint cost, an interval without a periodic policy, and checkpoint
// policies missing their prerequisites are not.
func (p Point) ValidateRobustness() error {
	if math.IsNaN(p.MTBF) || p.MTBF < 0 {
		return fmt.Errorf("%w (got %g)", fault.ErrNonPositiveMTBF, p.MTBF)
	}
	if math.IsNaN(p.MTTR) || p.MTTR < 0 {
		return fmt.Errorf("%w (got %g)", fault.ErrNegativeMTTR, p.MTTR)
	}
	if p.ResizeOverhead < 0 {
		return fmt.Errorf("%w (got %d)", ErrNegativeResizeOverhead, p.ResizeOverhead)
	}
	if err := p.Retry.Validate(); err != nil {
		return err
	}
	if err := fault.ValidateCheckpoint(p.CheckpointPolicy, p.CheckpointInterval, p.CheckpointCost, p.MTBF); err != nil {
		return err
	}
	if p.CheckpointPolicy != fault.CheckpointNone && p.MTBF <= 0 {
		return fmt.Errorf("%w (policy %s)", ErrCheckpointWithoutFaults, p.CheckpointPolicy)
	}
	if p.CheckpointPolicy == fault.CheckpointOnResize && !p.Malleable {
		return engine.ErrOnResizeNeedsMalleable
	}
	return nil
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
	for _, pt := range s.Points {
		if err := pt.ValidateRobustness(); err != nil {
			return nil, fmt.Errorf("experiment %s: point %g: %w", s.ID, pt.X, err)
		}
		if pt.Route != "" && pt.Clusters <= 1 {
			return nil, fmt.Errorf("experiment %s: point %g sets Route=%q without Clusters > 1",
				s.ID, pt.X, pt.Route)
		}
		if (pt.Epoch != 0 || pt.Steal || pt.Affinity > 0) && pt.Clusters <= 1 {
			return nil, fmt.Errorf("experiment %s: point %g sets epoch/steal/affinity without Clusters > 1",
				s.ID, pt.X)
		}
		if pt.Clusters > 1 {
			// Resolve the policy name up front so a typo fails the sweep
			// before any workload is generated. Epoch mode admits the
			// dynamic feedback policy on top of the static set.
			resolve := dispatch.NewRouter
			if pt.Epoch > 0 {
				resolve = dispatch.NewDynamicRouter
			}
			if _, err := resolve(pt.Route); err != nil {
				return nil, fmt.Errorf("experiment %s: point %g: %w", s.ID, pt.X, err)
			}
			if pt.Epoch == 0 && (pt.Steal || pt.Affinity > 0 || pt.Route == dispatch.RouteFeedback) {
				return nil, fmt.Errorf("experiment %s: point %g: %w", s.ID, pt.X, dispatch.ErrEpochRequired)
			}
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
		for t := range tasks {
			out := slot(t.ai, t.pi, t.si)
			pt := s.Points[t.pi]
			params := pt.Params
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
			cfg := engine.Config{
				M:              params.M,
				Unit:           params.Unit,
				ProcessECC:     a.ECC,
				MaxECCPerJob:   params.MaxECCPerJob,
				Contiguous:     pt.Contiguous,
				Migrate:        pt.Migrate,
				Malleable:      pt.Malleable,
				ResizeOverhead: pt.ResizeOverhead,
				Prevalidated:   true,
			}
			if pt.MTBF > 0 {
				cfg.Faults = &engine.FaultConfig{
					MTBF: pt.MTBF, MTTR: pt.MTTR,
					Seed: seeds[t.si], Retry: pt.Retry,
					Checkpoint:         pt.CheckpointPolicy,
					CheckpointInterval: pt.CheckpointInterval,
					CheckpointCost:     pt.CheckpointCost,
				}
			}
			if pt.Clusters > 1 {
				// Sharded point: the cell records the merged global view.
				// Workers=1 keeps the sweep's own worker pool the only
				// parallelism; the dispatch result is identical for any
				// value, so this is purely a scheduling choice.
				r, err := dispatch.Run(w, dispatch.Config{
					Clusters:     pt.Clusters,
					Workers:      1,
					Engine:       cfg,
					NewScheduler: func() sched.Scheduler { return a.New(pt) },
					Route:        pt.Route,
					Epoch:        pt.Epoch,
					Steal:        pt.Steal,
					Affinity:     pt.Affinity,
				})
				if err != nil {
					out.err = err
					failed.Store(true)
					continue
				}
				out.sum = r.Merged
				out.ecc = r.ECC
				out.events = r.Events
				out.cycles = r.Cycles
				continue
			}
			cfg.Scheduler = a.New(pt)
			r, err := engine.Run(w, cfg)
			if err != nil {
				out.err = err
				failed.Store(true)
				continue
			}
			out.sum = r.Summary
			out.ecc = r.ECC
			out.events = r.Events
			out.cycles = r.Cycles
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
