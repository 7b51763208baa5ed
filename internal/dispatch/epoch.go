package dispatch

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"elastisched/internal/cwf"
	"elastisched/internal/engine"
	"elastisched/internal/job"
	"elastisched/internal/metrics"
)

// This file is the dispatcher's one run path. Every job reaches its cluster
// in one of two ways:
//
//   - Loaded: under a static policy with stealing off, every job's cluster
//     is fixed for the whole run (split; a single cluster is a one-part
//     split). No barrier is needed: each cluster's session is opened inside
//     the drain task that runs it, loads its part, runs to completion, and
//     is dropped once its result is taken.
//   - Released at barriers: stealing and feedback routing need the
//     deterministic epoch-synchronization protocol behind
//     Config.Epoch/Steal/Affinity.
//
// Protocol. Virtual time is cut into epochs of Config.Epoch seconds. Per
// round k with barrier T = (k+1)·Epoch:
//
//  1. Release: jobs with arrivals in (T−Epoch, T] go to their cluster (the
//     precomputed static split, else the affinity pin, else the feedback
//     router reading the last barrier's digests) and are injected there;
//     commands in the window follow their job's current owner.
//  2. Step: every cluster session advances to the barrier (RunUntil) on the
//     worker pool. Sessions never interact while running.
//  3. Exchange: at the barrier each cluster publishes a Digest, and the
//     steal pass — plain single-threaded code over the merged digests, in
//     deterministic order — moves queued jobs from backlogged clusters to
//     idle ones (Withdraw/AbsorbAt, ownership updated so later commands
//     follow).
//
// Once everything is released and no exchange step remains, the drain runs
// the sessions to completion in parallel.
//
// Determinism argument: releases are a pure function of the workload prefix
// and the previous barrier's digests; digests are a pure function of each
// cluster's (single-goroutine deterministic) session state at the barrier;
// the exchange runs after every session reached the barrier, on one
// goroutine, scanning clusters in a fixed order. Worker count only changes
// which sessions run concurrently between barriers, never what any of them
// observes — so the result is byte-identical for any worker count. A loaded
// run never crosses a barrier, so the same holds there trivially.

// epochRun is the state of one dispatcher run.
type epochRun struct {
	cfg      Config
	workers  int
	sessions []*engine.Session
	errs     []error
	outs     []*engine.Result
	// samples holds each drained cluster's sample view for the merge.
	samples []metrics.Samples
	// jobs counts the submissions each cluster owns: the routed split,
	// adjusted by every steal.
	jobs []int
	// parts is the fixed split of a loaded run, one workload per cluster;
	// nil when jobs are released at barriers.
	parts []*cwf.Workload

	dynamic DigestRouter // non-nil when the policy reads digests (feedback)
	// owner maps job ID -> current cluster when jobs are released at
	// barriers: the whole static split up front, or filled at release under
	// feedback routing. Updated only in the exchange step, so ownership is
	// constant within an epoch and commands always land where their job is.
	// An unreleased job can only be at its static home, so the split alone
	// routes the commands that arrive before their job.
	owner map[int]int

	digests []Digest
	steals  int
	epochs  int

	// Worker pool, spun up on the first parallel call and kept for the run:
	// the loop hits a barrier thousands of times per workload, so per-epoch
	// goroutine spawns would dominate the protocol's own cost. fn is the
	// current round's task; the channel send into tasks publishes it, and
	// wg.Wait() fences the round before fn is swapped.
	tasks chan int
	fn    func(c int) error
	wg    sync.WaitGroup

	// Exchange-step and step-dispatch scratch, reused across epochs.
	receivers, donors []int
	victims           []*job.Job
	active            []int
	barrier           int64
}

// runEpochs executes a dispatcher run. The caller has validated the
// config and the workload and resolved the router.
func runEpochs(w *cwf.Workload, cfg Config, router Router) (*Result, error) {
	e := &epochRun{
		cfg:      cfg,
		workers:  resolveWorkers(cfg.Workers, cfg.Clusters),
		sessions: make([]*engine.Session, cfg.Clusters),
		errs:     make([]error, cfg.Clusters),
		outs:     make([]*engine.Result, cfg.Clusters),
		samples:  make([]metrics.Samples, cfg.Clusters),
		jobs:     make([]int, cfg.Clusters),
		digests:  make([]Digest, cfg.Clusters),
	}
	defer e.stopPool()
	var parts []*cwf.Workload
	if dyn, ok := router.(DigestRouter); ok {
		router.Reset(cfg.Clusters, cfg.Engine.M)
		e.dynamic = dyn
		e.owner = make(map[int]int, len(w.Jobs))
	} else {
		parts, e.owner = split(w, cfg.Clusters, cfg.Engine.M, cfg.Affinity, router)
		for c, p := range parts {
			e.jobs[c] = len(p.Jobs)
		}
	}
	if e.dynamic == nil && !cfg.Steal {
		// Loaded: no job ever leaves its home. Owners stays nil — the split
		// is a pure function of the workload.
		e.parts, e.owner = parts, nil
	} else {
		if err := e.openSessions(w, parts); err != nil {
			return nil, err
		}
		if err := e.loop(w); err != nil {
			return nil, err
		}
	}
	if err := e.parallel(e.drain); err != nil {
		return nil, err
	}
	res := assemble(e.outs, e.samples, e.jobs, cfg.Engine.M)
	res.Steals, res.Epochs, res.Owners = e.steals, e.epochs, e.owner
	return res, nil
}

// split fixes every job's cluster up front: the router assigns submissions
// in workload order, affinity pins overriding its choice, and each command
// follows its job. It returns the per-cluster workloads and the job ID ->
// cluster map. The split depends only on the workload, the cluster count,
// the policy, and the affinity — never on timing or worker count.
func split(w *cwf.Workload, clusters, m, affinity int, r Router) ([]*cwf.Workload, map[int]int) {
	r.Reset(clusters, m)
	parts := make([]*cwf.Workload, clusters)
	for c := range parts {
		parts[c] = &cwf.Workload{Header: w.Header}
	}
	home := make(map[int]int, len(w.Jobs))
	for i, j := range w.Jobs {
		c := PinnedCluster(j.ID, affinity, clusters)
		if c < 0 {
			c = r.Route(j)
			if c < 0 || c >= clusters {
				panic(fmt.Sprintf("dispatch: router %s sent job %d (index %d) to cluster %d of %d",
					r.Name(), j.ID, i, c, clusters))
			}
		}
		home[j.ID] = c
		parts[c].Jobs = append(parts[c].Jobs, j)
	}
	for _, cmd := range w.Commands {
		// A validated workload has no command for a job no cluster owns.
		if c, ok := home[cmd.JobID]; ok {
			parts[c].Commands = append(parts[c].Commands, cmd)
		}
	}
	return parts, home
}

// openSessions creates one empty session per cluster, fed by Inject at the
// barriers, and arms its fault stream over the span Load would sample: the
// cluster's own part of a static split, the whole workload under feedback
// routing (parts nil, homes unknown up front).
func (e *epochRun) openSessions(w *cwf.Workload, parts []*cwf.Workload) error {
	for c := range e.sessions {
		part := w
		if parts != nil {
			part = parts[c]
		}
		s, err := engine.New(e.cfg.clusterEngine(c))
		if err != nil {
			return fmt.Errorf("dispatch: cluster %d: %w", c, err)
		}
		if err := s.ArmFaults(part); err != nil {
			return fmt.Errorf("dispatch: cluster %d: %w", c, err)
		}
		e.sessions[c] = s
	}
	return nil
}

// drain runs cluster c to completion and takes its result and sample view.
// A loaded cluster opens its session here, inside its own task, so only the
// sessions the workers are running are live at once; every session is
// dropped once its result is taken — the view keeps only its series alive,
// and stays valid because the session never runs again.
func (e *epochRun) drain(c int) (err error) {
	s := e.sessions[c]
	if s == nil {
		if s, err = engine.New(e.cfg.clusterEngine(c)); err != nil {
			return err
		}
		if err = s.Load(e.parts[c]); err != nil {
			return err
		}
	}
	e.sessions[c] = nil
	if err = s.Run(); err != nil {
		return err
	}
	e.outs[c], err = s.Result()
	e.samples[c] = s.Samples()
	return err
}

// loop drives the release/step/exchange rounds until every job and command
// is released and no exchange step remains; the drain finishes the rest.
func (e *epochRun) loop(w *cwf.Workload) error {
	// Stable arrival/issue orders: ties keep workload (submission) order,
	// matching the event-insertion order of a Load.
	jobOrder := make([]int, len(w.Jobs))
	for i := range jobOrder {
		jobOrder[i] = i
	}
	sort.SliceStable(jobOrder, func(a, b int) bool {
		return w.Jobs[jobOrder[a]].Arrival < w.Jobs[jobOrder[b]].Arrival
	})
	cmdOrder := make([]int, len(w.Commands))
	for i := range cmdOrder {
		cmdOrder[i] = i
	}
	sort.SliceStable(cmdOrder, func(a, b int) bool {
		return w.Commands[cmdOrder[a]].Issue < w.Commands[cmdOrder[b]].Issue
	})

	ji, ci := 0, 0
	var t int64
	// One closure for every step round: it reads the barrier from the run
	// state, so the hot loop does not allocate a fresh capture per epoch.
	step := func(c int) error { return e.sessions[c].RunUntil(e.barrier) }
	for {
		released := ji == len(jobOrder) && ci == len(cmdOrder)
		if released {
			if !e.cfg.Steal || e.allDone() {
				// Nothing left to route and no exchange step to run: the
				// sessions are independent now.
				return nil
			}
		} else if e.allDone() && e.allIdle() {
			// Every cluster is drained and empty: fast-forward over the
			// dead epochs to the one containing the next release. The
			// digests of the skipped barriers are all-idle, so neither the
			// exchange step nor the feedback router loses information.
			next := int64(1<<63 - 1)
			if ji < len(jobOrder) {
				next = w.Jobs[jobOrder[ji]].Arrival
			}
			if ci < len(cmdOrder) && w.Commands[cmdOrder[ci]].Issue < next {
				next = w.Commands[cmdOrder[ci]].Issue
			}
			if skip := (next - 1) / e.cfg.Epoch * e.cfg.Epoch; skip > t {
				t = skip
			}
		}
		barrier := t + e.cfg.Epoch

		for ji < len(jobOrder) && w.Jobs[jobOrder[ji]].Arrival <= barrier {
			j := w.Jobs[jobOrder[ji]]
			c := e.home(j)
			if err := e.sessions[c].Inject(j); err != nil {
				return fmt.Errorf("dispatch: cluster %d: %w", c, err)
			}
			ji++
		}
		for ci < len(cmdOrder) && w.Commands[cmdOrder[ci]].Issue <= barrier {
			cmd := w.Commands[cmdOrder[ci]]
			ci++
			c, ok := e.owner[cmd.JobID]
			if !ok && e.dynamic == nil {
				// A static split owns every job of a validated workload; drop
				// a command for any other, as the split itself does.
				continue
			}
			if !ok {
				// Feedback routing: the job is released in a later window, so
				// the command fires before its arrival and is ignored-unknown
				// wherever it lands. Cluster 0 keeps the accounting
				// deterministic.
				c = 0
			}
			if err := e.sessions[c].InjectCommand(cmd); err != nil {
				return fmt.Errorf("dispatch: cluster %d: %w", c, err)
			}
		}

		// Step: only sessions with an event inside the window can change
		// state (RunUntil never advances past the last event), so dispatch
		// exactly those — under light load most barriers touch one or two
		// clusters, and handing an idle session to the pool costs more than
		// the no-op RunUntil it would run.
		active := e.active[:0]
		for c, s := range e.sessions {
			if next, ok := s.NextEventTime(); ok && next <= barrier {
				active = append(active, c)
			}
		}
		e.active = active
		e.barrier = barrier
		if err := e.parallelOver(active, step); err != nil {
			return err
		}
		// Exchange: the steal pass and the feedback router read the digests.
		for c, s := range e.sessions {
			e.digests[c] = digestSession(c, s, barrier)
		}
		if e.cfg.Steal {
			if err := e.stealPass(barrier); err != nil {
				return err
			}
		}
		if e.dynamic != nil {
			e.dynamic.ObserveDigests(e.digests)
		}
		t = barrier
		e.epochs++
	}
}

// home returns the cluster a released job goes to: its precomputed static
// home or, under feedback routing, its affinity pin or the router's choice,
// recorded as its owner.
func (e *epochRun) home(j *job.Job) int {
	if e.dynamic == nil {
		return e.owner[j.ID]
	}
	c := PinnedCluster(j.ID, e.cfg.Affinity, e.cfg.Clusters)
	if c >= 0 {
		e.dynamic.Assigned(j, c)
	} else if c = e.dynamic.Route(j); c < 0 || c >= e.cfg.Clusters {
		panic(fmt.Sprintf("dispatch: router %s sent job %d to cluster %d of %d",
			e.dynamic.Name(), j.ID, c, e.cfg.Clusters))
	}
	e.owner[j.ID] = c
	e.jobs[c]++
	return c
}

// stealPass is the exchange step: computed at the barrier from the merged
// digests, on one goroutine, in deterministic order. Idle clusters (empty
// queue, free capacity) pull queued jobs from the most loaded backlogged
// clusters, and every stolen job fits the receiver's remaining free
// capacity, so everything stolen starts at the barrier — a steal only ever
// converts waiting into running. Two classes move, in order:
//
//  1. Blocked heads: while the donor's queue head needs more processors
//     than the donor has free, it cannot start at home no matter what the
//     local scheduler does, and under a conservative policy it blocks the
//     whole queue behind it. Moving it to a cluster where it starts now is
//     the giant-collision repair, so no size or duration cap applies.
//  2. Short tail jobs, youngest first, never the (startable) head: these
//     drain idle capacity without queue-jumping the donor's head. Only
//     jobs occupying the receiver for at most stealDurCap epochs are
//     taken — parking a heavy-tailed runtime on an idle cluster would
//     block the wide arrivals routed there long after the backlog that
//     justified the steal has drained.
//
// Rigid jobs (failure victims entitled to the head) and jobs pinned to
// another cluster never move. Digest entries are updated as moves happen,
// so later decisions in the same pass see them.
func (e *epochRun) stealPass(barrier int64) error {
	receivers, donors := e.receivers[:0], e.donors[:0]
	for c, d := range e.digests {
		switch {
		case d.QueueDepth == 0 && d.FreeProcs > 0:
			receivers = append(receivers, c)
		case d.QueueDepth > 0:
			donors = append(donors, c)
		}
	}
	e.receivers, e.donors = receivers, donors
	if len(receivers) == 0 || len(donors) == 0 {
		return nil
	}
	// Least-loaded receivers pick first; heaviest donors give first. Ties
	// break on cluster index: everything about this order is deterministic.
	// Stable insertion sorts: the lists hold at most Clusters indices and
	// this runs every epoch, so the reflection cost of the sort package
	// would dominate the pass.
	e.sortByLoad(receivers, false)
	e.sortByLoad(donors, true)
	durCap := stealDurCap * e.cfg.Epoch
	for _, r := range receivers {
		freeLeft := e.digests[r].FreeProcs
		for _, dn := range donors {
			if freeLeft <= 0 {
				break
			}
			d := &e.digests[dn]
			if d.QueueDepth == 0 {
				continue
			}
			// Select read-only over the live queue, then apply: Withdraw
			// mutates the queue, and snapshotting a deep backlog every
			// barrier would cost more than the whole exchange. Selection
			// never depends on the moves it has already chosen beyond the
			// freeLeft budget, so the split is exact.
			q := e.sessions[dn].WaitingBatch()
			chosen := e.victims[:0]
			// Blocked heads: each move promotes the next job to head; it is
			// blocked by the same test against the donor's unchanged free
			// capacity.
			head := 0
			for head < len(q) && freeLeft > 0 {
				j := q[head]
				if j.Size <= d.FreeProcs {
					break // the head starts at home as soon as it is scheduled
				}
				if j.Rigid || j.Class != job.Batch || j.Size > freeLeft {
					break // an immovable blocked head keeps its queue behind it
				}
				if pin := PinnedCluster(j.ID, e.cfg.Affinity, e.cfg.Clusters); pin >= 0 && pin != r {
					break
				}
				chosen = append(chosen, j)
				freeLeft -= j.Size
				head++
			}
			// Short tails, youngest first, never the current head.
			for i := len(q) - 1; i > head && freeLeft > 0; i-- {
				j := q[i]
				if j.Rigid || j.Class != job.Batch || j.Size > freeLeft || j.Dur > durCap {
					continue
				}
				if pin := PinnedCluster(j.ID, e.cfg.Affinity, e.cfg.Clusters); pin >= 0 && pin != r {
					continue
				}
				chosen = append(chosen, j)
				freeLeft -= j.Size
			}
			e.victims = chosen
			for _, j := range chosen {
				if err := e.stealJob(j, dn, r, barrier); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// stealJob moves one queued job from cluster dn to cluster r at the barrier
// and keeps the ownership map, the per-cluster job counts, and both digest
// entries in step, so later decisions in the same pass see the move. The
// caller maintains its own remaining-free-capacity budget.
func (e *epochRun) stealJob(j *job.Job, dn, r int, barrier int64) error {
	if err := e.sessions[dn].Withdraw(j); err != nil {
		return fmt.Errorf("dispatch: cluster %d: %w", dn, err)
	}
	if err := e.sessions[r].AbsorbAt(j, barrier); err != nil {
		return fmt.Errorf("dispatch: cluster %d: %w", r, err)
	}
	e.owner[j.ID] = r
	e.jobs[dn]--
	e.jobs[r]++
	e.steals++
	wk := int64(j.Size) * j.Dur
	e.digests[dn].QueueDepth--
	e.digests[dn].BacklogProcSeconds -= wk
	e.digests[r].FreeProcs -= j.Size
	e.digests[r].RunningProcSeconds += wk
	return nil
}

// stealDurCap bounds, in epochs, how long a tail-stolen job may occupy the
// receiving cluster. Blocked heads are exempt (see stealPass).
const stealDurCap = 8

// sortByLoad stably orders cluster indices by digest load, ascending or
// descending; appended in index order, ties keep the lower index first.
func (e *epochRun) sortByLoad(list []int, desc bool) {
	for i := 1; i < len(list); i++ {
		c := list[i]
		l := e.digests[c].load()
		k := i - 1
		for k >= 0 {
			lk := e.digests[list[k]].load()
			if (desc && lk >= l) || (!desc && lk <= l) {
				break
			}
			list[k+1] = list[k]
			k--
		}
		list[k+1] = c
	}
}

// allDone reports whether every session has drained its event queue.
func (e *epochRun) allDone() bool {
	for _, s := range e.sessions {
		if !s.Done() {
			return false
		}
	}
	return true
}

// allIdle reports whether no session holds queued or running work.
func (e *epochRun) allIdle() bool {
	for _, s := range e.sessions {
		if s.Waiting() != 0 || s.Running() != 0 {
			return false
		}
	}
	return true
}

// parallel runs fn for every cluster; see parallelOver.
func (e *epochRun) parallel(fn func(c int) error) error {
	active := e.active[:0]
	for c := range e.sessions {
		active = append(active, c)
	}
	e.active = active
	return e.parallelOver(active, fn)
}

// parallelOver runs fn for the listed clusters on the run's persistent
// worker pool and surfaces the first error in cluster order, regardless of
// wall-clock completion order. The pool goroutines are started once and
// reused for every round: the channel send publishes e.fn to the worker
// picking the task up, and wg.Wait() fences the whole round before the
// next call swaps fn. A single-cluster round runs inline — the handoff
// costs more than it buys.
func (e *epochRun) parallelOver(list []int, fn func(c int) error) error {
	if e.workers == 1 || len(list) == 1 {
		for _, c := range list {
			e.errs[c] = fn(c)
		}
	} else {
		if e.tasks == nil {
			// Workers range over the local: a worker first scheduled after
			// stopPool cleared e.tasks still sees the closed channel and
			// exits, instead of racing on the field.
			tasks := make(chan int)
			e.tasks = tasks
			for i := 0; i < e.workers; i++ {
				go func() {
					for c := range tasks {
						e.errs[c] = e.fn(c)
						e.wg.Done()
					}
				}()
			}
		}
		e.fn = fn
		e.wg.Add(len(list))
		for _, c := range list {
			e.tasks <- c
		}
		e.wg.Wait()
	}
	for _, c := range list {
		if err := e.errs[c]; err != nil {
			return fmt.Errorf("dispatch: cluster %d: %w", c, err)
		}
	}
	return nil
}

// stopPool releases the worker goroutines at the end of the run.
func (e *epochRun) stopPool() {
	if e.tasks != nil {
		close(e.tasks)
		e.tasks = nil
	}
}

// resolveWorkers applies the Config.Workers defaulting: GOMAXPROCS for a
// non-positive value, and never more workers than clusters.
func resolveWorkers(workers, clusters int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > clusters {
		workers = clusters
	}
	return workers
}
