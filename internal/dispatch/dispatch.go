// Package dispatch is the two-level scheduling layer: a global dispatcher
// that routes an arriving workload across N per-cluster engine sessions and
// runs them on parallel goroutines, merging their outcomes
// deterministically. It models the scale-out configuration of the ROADMAP —
// many racks, one entry point — the way the two-level-scheduling and SST
// scalable-simulation papers structure it: global routing above, unmodified
// per-cluster scheduling below.
//
// Determinism contract: routing is a pure function of the workload order,
// the cluster count, and the routing policy (see Router — round-robin,
// least-work, best-fit; commands always follow their job), every cluster
// simulation is single-goroutine deterministic, and the merge walks
// clusters in index order. The result is therefore byte-identically
// reproducible for any worker count under every policy; the cross-worker
// determinism test pins 1/2/4/8 workers for each policy. This is the same
// parallel-execution/deterministic-reduction split the experiment sweeps
// use.
package dispatch

import (
	"errors"
	"fmt"

	"elastisched/internal/cwf"
	"elastisched/internal/ecc"
	"elastisched/internal/engine"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
)

// Typed configuration errors, testable with errors.Is.
var (
	// ErrClusterCount rejects a non-positive cluster count.
	ErrClusterCount = errors.New("dispatch: cluster count must be at least 1")
	// ErrNoScheduler rejects a config without a scheduler factory.
	ErrNoScheduler = errors.New("dispatch: no scheduler factory configured")
	// ErrTemplateScheduler and ErrTemplateObserver are the engine's template
	// rule (engine.Config.ValidateTemplate): each cluster gets its own
	// policy from NewScheduler, and placement events from parallel clusters
	// would interleave nondeterministically.
	ErrTemplateScheduler = engine.ErrTemplateScheduler
	ErrTemplateObserver  = engine.ErrTemplateObserver
	// ErrEpochRequired rejects dynamic features — stealing, affinity pinning,
	// feedback routing — on a multi-cluster run without a positive Epoch:
	// they all live in the epoch protocol's barrier exchange.
	ErrEpochRequired = errors.New("dispatch: steal/affinity/feedback require a positive Epoch")
	// ErrNeedsClusters rejects sharding knobs — a routing policy other than
	// round-robin, Epoch, Steal, Affinity — on a single-cluster run, which
	// has no peer to route to, exchange with, or pin on.
	ErrNeedsClusters = errors.New("dispatch: route/epoch/steal/affinity need Clusters > 1")
	// ErrNegativeAffinity rejects a negative affinity class size (0 turns
	// pinning off).
	ErrNegativeAffinity = errors.New("dispatch: affinity must not be negative")
)

// Config describes one sharded run. A non-default Route, Epoch, Steal, and
// Affinity all need Clusters > 1 (ErrNeedsClusters).
type Config struct {
	// Clusters is the number of per-cluster sessions (the global machine is
	// Clusters × Engine.M processors).
	Clusters int
	// Workers bounds the goroutines stepping cluster sessions; 0 means
	// GOMAXPROCS. The outcome is identical for any value (see the package
	// determinism contract).
	Workers int
	// Engine is the per-cluster configuration template: machine geometry,
	// ECC processing, allocation policy, fault model. It must pass
	// engine.Config.ValidateTemplate; Prevalidated is managed by the
	// dispatcher.
	Engine engine.Config
	// NewScheduler builds one policy instance per cluster.
	NewScheduler func() sched.Scheduler
	// Route names the routing policy splitting submissions over clusters:
	// RouteRoundRobin (the default for ""), RouteLeastWork, RouteBestFit, or
	// RouteFeedback, which needs Epoch > 0. Routing is a pure function of
	// (workload order, cluster count, policy, and — for feedback — the
	// deterministic barrier digests), so every policy keeps the
	// cross-worker determinism contract.
	Route string
	// Epoch is the barrier interval, in virtual seconds, of the
	// epoch-synchronization protocol that stealing, affinity pinning, and
	// feedback routing need: sessions step to shared barriers every Epoch
	// seconds, publish queue digests, and exchange work deterministically
	// (see epoch.go). A static policy with stealing off never moves a job
	// after routing, so it runs without barriers whatever the value.
	Epoch int64
	// Steal enables the barrier exchange step: idle clusters pull queued
	// jobs from backlogged ones, commands following the job. Needs Epoch.
	Steal bool
	// Affinity, when positive, pins every Affinity-th submission (job IDs
	// divisible by Affinity) to a home cluster derived from its ID — a
	// data-locality class that routing honors and stealing never violates.
	// Needs Epoch; 0 turns pinning off.
	Affinity int
}

// Validate checks the run's configuration without running it: the
// dispatcher's own rules, the route name against the one registry
// (NewRouter), and the engine template through engine.Config's
// ValidateTemplate and Validate.
// Every error wraps a typed sentinel where one exists, testable with
// errors.Is.
func (cfg Config) Validate() error {
	if cfg.Clusters < 1 {
		return fmt.Errorf("%w (got %d)", ErrClusterCount, cfg.Clusters)
	}
	if cfg.NewScheduler == nil {
		return ErrNoScheduler
	}
	if err := cfg.Engine.ValidateTemplate(); err != nil {
		return err
	}
	if err := cfg.ValidateSharding(); err != nil {
		return err
	}
	return cfg.Engine.Validate()
}

// ValidateSharding checks the sharding knobs alone — Route, Epoch, Steal
// and Affinity against Clusters — so a front end that runs a single
// cluster without the dispatcher rejects them by the same rule. A cluster
// count below 2 counts as a single cluster here; Validate rejects one
// below 1 first.
func (cfg Config) ValidateSharding() error {
	if _, err := NewRouter(cfg.Route); err != nil {
		return err
	}
	if cfg.Epoch < 0 {
		return fmt.Errorf("%w (got epoch %d)", ErrEpochRequired, cfg.Epoch)
	}
	if cfg.Affinity < 0 {
		return fmt.Errorf("%w (got %d)", ErrNegativeAffinity, cfg.Affinity)
	}
	if cfg.Clusters <= 1 && ((cfg.Route != "" && cfg.Route != RouteRoundRobin) ||
		cfg.Epoch != 0 || cfg.Steal || cfg.Affinity != 0) {
		return ErrNeedsClusters
	}
	if cfg.Epoch == 0 && (cfg.Steal || cfg.Affinity > 0 || cfg.Route == RouteFeedback) {
		return ErrEpochRequired
	}
	return nil
}

// ClusterResult is one cluster's outcome.
type ClusterResult struct {
	// Cluster is the cluster index; Jobs the number of submissions it owns
	// at the end of the run — routed to it, adjusted by steals.
	Cluster int
	Jobs    int
	Result  *engine.Result
}

// Result is the merged outcome of a sharded run.
type Result struct {
	// Merged aggregates the per-cluster summaries into the exact global
	// view: job counts, the busy-area utilization over the global window
	// and machine, job-weighted means (wait, runtime, bounded slowdown,
	// per-cluster slowdown, per-class waits), MaxWait, and the fault/ECC
	// accounting sums. The order statistics — MedianWait, P95Wait and the
	// steady-state window, utilization and mean wait — come from
	// metrics.Summary.SetOrderStats over each cluster's sample view
	// (engine Session.Samples) in cluster-index order: the collector's own
	// code, so they are identical to the values a single global collector
	// would report for the same per-cluster schedules. Only MaxQueueDepth
	// remains a per-cluster property (a global maximum needs the sum of
	// per-cluster depth step functions, which are not exported); read it
	// from Clusters[i].
	Merged metrics.Summary
	// ECC sums the command-processor accounting; DroppedECC the commands
	// dropped by non-ECC configurations.
	ECC        ecc.Stats
	DroppedECC int
	// Events and Cycles total the kernel events and scheduler invocations
	// across clusters.
	Events uint64
	Cycles uint64
	// Clusters holds the per-cluster results, in cluster order.
	Clusters []ClusterResult
	// Steals and Epochs report the epoch protocol's activity: jobs moved
	// between clusters by the barrier exchange, and barrier rounds run.
	// Both stay zero when no job can change cluster — a static policy with
	// stealing off, at any Epoch — so such a run serializes the same
	// whatever its Epoch.
	Steals int `json:",omitempty"`
	Epochs int `json:",omitempty"`
	// Owners maps job ID to the cluster that completed it — the routed home
	// updated by steals. Nil when no job can change cluster: the split is
	// then a pure function of the workload, counted by Clusters[i].Jobs.
	Owners map[int]int `json:",omitempty"`
}

// Run executes the workload across cfg.Clusters parallel cluster sessions
// and merges the outcomes. The workload is validated once against the
// per-cluster machine and not mutated (each session clones its jobs), so
// the same workload can be replayed under other configurations. Every run
// goes through runEpochs; a single cluster is a one-part static split,
// which runs without barriers.
func Run(w *cwf.Workload, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Every job must fit one cluster's machine; validating the whole
	// workload against the per-cluster M establishes that for any routing.
	if !cfg.Engine.Prevalidated {
		if err := w.Validate(cfg.Engine.M); err != nil {
			return nil, err
		}
	}
	router, err := NewRouter(cfg.Route)
	if err != nil {
		return nil, err
	}
	return runEpochs(w, cfg, router)
}

// clusterEngine builds cluster c's engine configuration from the template:
// its own scheduler instance, and its own fault stream seeded at an offset
// of its index, so the same global seed fails the same groups of the same
// clusters on every run.
func (cfg *Config) clusterEngine(c int) engine.Config {
	ecfg := cfg.Engine
	ecfg.Scheduler = cfg.NewScheduler()
	ecfg.Prevalidated = true
	if cfg.Engine.Faults != nil {
		fc := *cfg.Engine.Faults
		fc.Seed += int64(c)
		ecfg.Faults = &fc
	}
	return ecfg
}

// assemble builds the Result from the per-cluster outcomes and sample
// views, summing in cluster order; jobs[c] is the number of submissions
// cluster c owns.
func assemble(outs []*engine.Result, samples []metrics.Samples, jobs []int, clusterM int) *Result {
	res := &Result{Clusters: make([]ClusterResult, len(outs))}
	for c, r := range outs {
		res.Clusters[c] = ClusterResult{Cluster: c, Jobs: jobs[c], Result: r}
		res.ECC = res.ECC.Add(r.ECC)
		res.DroppedECC += r.DroppedECC
		res.Events += r.Events
		res.Cycles += r.Cycles
	}
	res.Merged = mergeSummaries(outs, samples, clusterM)
	return res
}

// mergeSummaries combines per-cluster summaries into the global view,
// walking clusters in index order so every float accumulates
// deterministically. See Result.Merged for the field-by-field semantics.
func mergeSummaries(outs []*engine.Result, samples []metrics.Samples, clusterM int) metrics.Summary {
	if len(outs) == 1 {
		// One cluster: its summary already is the exact global view,
		// order statistics and queue depth included.
		return outs[0].Summary
	}
	var g metrics.Summary
	g.MachineSize = clusterM * len(outs)
	first := true
	// Busy processor-seconds reconstruct exactly from each cluster's
	// utilization: area_i = util_i × span_i × M_i.
	var area, waitSum, runSum, slowSum, boundedSum, batchSum, dedSum, onTimeSum float64
	var batchJobs int
	for _, r := range outs {
		s := r.Summary
		if s.Jobs == 0 && s.JobsStarted == 0 {
			continue
		}
		if first || s.WindowStart < g.WindowStart {
			g.WindowStart = s.WindowStart
		}
		if first || s.WindowEnd > g.WindowEnd {
			g.WindowEnd = s.WindowEnd
		}
		first = false
		n := float64(s.Jobs)
		g.Jobs += s.Jobs
		g.JobsStarted += s.JobsStarted
		g.JobsFinished += s.JobsFinished
		g.DedicatedJobs += s.DedicatedJobs
		batchJobs += s.Jobs - s.DedicatedJobs
		area += s.Utilization * float64(s.WindowEnd-s.WindowStart) * float64(s.MachineSize)
		waitSum += s.MeanWait * n
		runSum += s.MeanRun * n
		// Slowdown merges as the job-weighted mean of the per-cluster
		// aggregate slowdowns. Recomputing (MeanWait+MeanRun)/MeanRun from
		// the global means disagrees with that job-weighted view whenever
		// cluster MeanRun differs (the ratio of averages is not the
		// average of ratios); the weighted sum keeps the single-cluster
		// case exact and treats Slowdown like every other mean.
		slowSum += s.Slowdown * n
		boundedSum += s.MeanBoundedSlow * n
		batchSum += s.MeanBatchWait * float64(s.Jobs-s.DedicatedJobs)
		dedSum += s.MeanDedWait * float64(s.DedicatedJobs)
		onTimeSum += s.DedicatedOnTime * float64(s.DedicatedJobs)
		if s.MaxWait > g.MaxWait {
			g.MaxWait = s.MaxWait
		}
		g.KilledJobs += s.KilledJobs
		g.RetriedJobs += s.RetriedJobs
		g.DroppedJobs += s.DroppedJobs
		g.LostWorkSeconds += s.LostWorkSeconds
		g.DownProcSeconds += s.DownProcSeconds
	}
	if span := float64(g.WindowEnd - g.WindowStart); span > 0 {
		g.Utilization = area / (span * float64(g.MachineSize))
	}
	if g.Jobs > 0 {
		n := float64(g.Jobs)
		g.MeanWait = waitSum / n
		g.MeanRun = runSum / n
		g.Slowdown = slowSum / n
		g.MeanBoundedSlow = boundedSum / n
	}
	if batchJobs > 0 {
		g.MeanBatchWait = batchSum / float64(batchJobs)
	}
	if g.DedicatedJobs > 0 {
		g.MeanDedWait = dedSum / float64(g.DedicatedJobs)
		g.DedicatedOnTime = onTimeSum / float64(g.DedicatedJobs)
	}
	g.SetOrderStats(samples)
	return g
}
