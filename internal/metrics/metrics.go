// Package metrics collects the performance measures the paper reports:
// mean system utilization (time-integrated busy fraction), mean job waiting
// time, and slowdown defined as (avg wait + avg runtime)/avg runtime
// (Section V). It also records richer diagnostics — per-class waits,
// percentiles, per-job bounded slowdown, dedicated on-time rate — used by
// the extended benches.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"elastisched/internal/job"
)

// Collector accumulates events during one simulation run.
type Collector struct {
	m int

	busy     int
	lastT    int64
	area     float64
	haveT0   bool
	t0, tEnd int64

	// waits is kept as a full series: the summary reports order statistics
	// (median, p95, max) that need every sample. The remaining per-job
	// measures only ever feed arithmetic means, so they accumulate as
	// streaming sums — same accumulation order as the old per-job slices,
	// so the float results are bit-identical.
	waits       []float64
	runSum      float64
	slowSum     float64
	batchSum    float64
	batchCount  int
	dedSum      float64
	dedOnTime   int
	dedTotal    int
	jobsStarted int
	jobsDone    int
	queued      int
	maxQueued   int

	// Fault accounting: jobs killed by node-group failures, how they were
	// dispatched afterwards, the processor-seconds of work the kills
	// destroyed, and the integral of out-of-service capacity.
	killed    int
	retried   int
	dropped   int
	lostWork  float64
	downProcs int
	downArea  float64

	// Checkpoint accounting: checkpoints taken by running jobs and the
	// total cost charged for them (the engine's lost-work decomposition:
	// what kills destroy shrinks to work-since-checkpoint, what
	// checkpointing costs shows up here).
	checkpoints  int
	ckptOverhead float64

	// Malleability accounting: system-initiated resizes applied, the
	// processor-seconds of planned capacity ceded by shrinks, and the total
	// reconfiguration overhead charged to resized jobs.
	schedResizes   int
	shrunkProcSecs float64
	reconfigSecs   float64

	// busySteps records the busy-count step function (one entry per change)
	// so steady-state windows can be evaluated after the fact.
	busySteps []BusyStep
	// perJob records (arrival, finish, wait) per completed job for windowed
	// wait statistics.
	perJob []JobPoint
}

// NewCollector returns a collector for a machine of m processors.
func NewCollector(m int) *Collector {
	return &Collector{m: m}
}

// Reset clears every accumulator, leaving the collector as NewCollector(m)
// builds it, and presizes it for a run of n jobs, so the per-job series
// and the busy step function grow without reallocation. It reuses the
// series' storage: Samples views taken before the Reset are invalid after
// it.
func (c *Collector) Reset(m, n int) {
	*c = Collector{
		m:         m,
		waits:     slices.Grow(c.waits[:0], n),
		perJob:    slices.Grow(c.perJob[:0], n),
		busySteps: slices.Grow(c.busySteps[:0], 2*n),
	}
}

// integrate advances the busy-area and down-capacity integrals to time t.
func (c *Collector) integrate(t int64) {
	if t > c.lastT {
		dt := float64(t - c.lastT)
		c.area += float64(c.busy) * dt
		if c.downProcs > 0 {
			c.downArea += float64(c.downProcs) * dt
		}
		c.lastT = t
	}
}

// noteBusy appends to the busy step function (coalescing same-instant
// changes).
func (c *Collector) noteBusy(t int64) {
	if n := len(c.busySteps); n > 0 && c.busySteps[n-1].T == t {
		c.busySteps[n-1].Busy = c.busy
		return
	}
	c.busySteps = append(c.busySteps, BusyStep{t, c.busy})
}

// JobArrived opens the measurement window at the first arrival and tracks
// the waiting-queue depth.
func (c *Collector) JobArrived(j *job.Job, t int64) {
	if !c.haveT0 || t < c.t0 {
		if !c.haveT0 {
			c.lastT = t
		}
		c.t0 = t
		c.haveT0 = true
	}
	c.queued++
	if c.queued > c.maxQueued {
		c.maxQueued = c.queued
	}
}

// JobWithdrawn reverses a JobArrived for a job leaving the waiting queue
// without starting — the sharded dispatcher's steal path, where the job
// re-arrives (and re-counts) on the receiving cluster's collector. Only the
// queue depth moves: the measurement window stays open, and the job's wait
// is accounted where it eventually starts.
func (c *Collector) JobWithdrawn() {
	c.queued--
}

// JobStarted accounts for a dispatch at time t.
func (c *Collector) JobStarted(j *job.Job, t int64) {
	c.integrate(t)
	c.busy += j.Size
	c.jobsStarted++
	c.queued--
	if c.busy > c.m {
		panic(fmt.Sprintf("metrics: busy %d exceeds machine %d at t=%d", c.busy, c.m, t))
	}
	c.noteBusy(t)
}

// JobFinished accounts for a completion at time t.
func (c *Collector) JobFinished(j *job.Job, t int64) {
	c.integrate(t)
	c.busy -= j.Size
	if c.busy < 0 {
		panic(fmt.Sprintf("metrics: negative busy %d at t=%d", c.busy, t))
	}
	c.noteBusy(t)
	c.jobsDone++
	if t > c.tEnd {
		c.tEnd = t
	}

	w := float64(j.Wait())
	c.perJob = append(c.perJob, JobPoint{Arrival: j.Arrival, Finish: t, Wait: w})
	r := float64(j.RunTime())
	c.waits = append(c.waits, w)
	c.runSum += r
	// Per-job bounded slowdown with the conventional 10s floor.
	den := math.Max(r, 10)
	c.slowSum += (w + math.Max(r, 10)) / den
	if j.Class == job.Dedicated {
		c.dedTotal++
		c.dedSum += w
		if j.Wait() == 0 {
			c.dedOnTime++
		}
	} else {
		c.batchSum += w
		c.batchCount++
	}
}

// JobKilled accounts for a running job killed by a node-group failure at
// time t: its processors free up, the work completed since lostFrom is
// lost, and it either re-enters the waiting queue later (requeued — a
// fresh JobArrived will fire at its resubmission) or leaves the system.
// Without checkpointing lostFrom is the job's start time (everything is
// lost); under a checkpoint policy the engine passes the last checkpoint
// instant for requeued kills, so LostWorkSeconds decomposes exactly into
// work-since-checkpoint.
func (c *Collector) JobKilled(j *job.Job, t int64, requeued bool, lostFrom int64) {
	c.integrate(t)
	c.busy -= j.Size
	if c.busy < 0 {
		panic(fmt.Sprintf("metrics: negative busy %d after kill at t=%d", c.busy, t))
	}
	c.noteBusy(t)
	c.killed++
	if lost := t - lostFrom; lost > 0 {
		c.lostWork += float64(lost) * float64(j.Size)
	}
	if requeued {
		c.retried++
	} else {
		c.dropped++
	}
}

// CheckpointTaken counts one checkpoint and the cost charged to the job's
// remaining runtime for taking it (zero-cost checkpoints still count). The
// overhead accumulates in processor-seconds — cost x size, since all of
// the job's processors stay occupied for the extra time — so it is
// directly comparable against LostWorkSeconds in the cost trade.
func (c *Collector) CheckpointTaken(cost int64, size int) {
	c.checkpoints++
	c.ckptOverhead += float64(cost) * float64(size)
}

// CapacityChanged records the out-of-service processor count after a
// failure or repair at time t, feeding the down-capacity integral.
func (c *Collector) CapacityChanged(downProcs int, t int64) {
	c.integrate(t)
	c.downProcs = downProcs
}

// SizeChanged accounts for an EP/RP resize of a running job at time t.
func (c *Collector) SizeChanged(delta int, t int64) {
	c.integrate(t)
	c.busy += delta
	if c.busy < 0 || c.busy > c.m {
		panic(fmt.Sprintf("metrics: busy %d out of range after resize at t=%d", c.busy, t))
	}
	c.noteBusy(t)
}

// SchedulerResized counts one applied system-initiated resize (a scheduler
// proposal or a fault-path shrink).
func (c *Collector) SchedulerResized() { c.schedResizes++ }

// ProcsShrunk adds the processor-seconds of planned capacity a shrink ceded
// (the size reduction times the remaining estimated runtime at the shrink).
func (c *Collector) ProcsShrunk(procSeconds float64) { c.shrunkProcSecs += procSeconds }

// ResizeOverheadApplied adds the reconfiguration cost charged to one
// work-conserving resize.
func (c *Collector) ResizeOverheadApplied(seconds int64) { c.reconfigSecs += float64(seconds) }

// BusyStep is one entry of the busy-count step function.
type BusyStep struct {
	T    int64 `json:"t"`
	Busy int   `json:"busy"`
}

// JobPoint is one per-job record (arrival, finish, wait).
type JobPoint struct {
	Arrival int64   `json:"arrival"`
	Finish  int64   `json:"finish"`
	Wait    float64 `json:"wait"`
}

// Samples is a read-only view of one part's per-job series: a whole
// collector's, or one cluster's in a sharded run. Every series is in
// completion order — the collector's accumulation order — so PerJob finish
// times are non-decreasing. Summary.SetOrderStats computes the order
// statistics from a list of views, which makes a sharded merge over
// per-cluster views exact: it reports what one global collector would.
type Samples struct {
	// Waits holds one waiting-time sample per completed job.
	Waits []float64
	// PerJob holds (arrival, finish, wait) per completed job.
	PerJob []JobPoint
	// BusySteps is the busy-processor step function (one entry per change).
	BusySteps []BusyStep
}

// Samples returns a view of the collector's series. It aliases live state:
// it is valid until the collector next accounts an event, and callers must
// not modify it.
func (c *Collector) Samples() Samples {
	return Samples{Waits: c.waits, PerJob: c.perJob, BusySteps: c.busySteps}
}

// Snapshot is the collector's complete accumulator state, sufficient to
// resume metering mid-run. The per-job series keep their accumulation
// order, so a restored collector's Summary is bit-identical to the
// uninterrupted run's (float sums depend on order).
type Snapshot struct {
	M           int        `json:"m"`
	Busy        int        `json:"busy"`
	LastT       int64      `json:"last_t"`
	Area        float64    `json:"area"`
	HaveT0      bool       `json:"have_t0"`
	T0          int64      `json:"t0"`
	TEnd        int64      `json:"t_end"`
	Waits       []float64  `json:"waits,omitempty"`
	RunSum      float64    `json:"run_sum"`
	SlowSum     float64    `json:"slow_sum"`
	BatchSum    float64    `json:"batch_sum"`
	BatchCount  int        `json:"batch_count"`
	DedSum      float64    `json:"ded_sum"`
	DedOnTime   int        `json:"ded_on_time"`
	DedTotal    int        `json:"ded_total"`
	JobsStarted int        `json:"jobs_started"`
	JobsDone    int        `json:"jobs_done"`
	Queued      int        `json:"queued"`
	MaxQueued   int        `json:"max_queued"`
	Killed      int        `json:"killed,omitempty"`
	Retried     int        `json:"retried,omitempty"`
	Dropped     int        `json:"dropped,omitempty"`
	LostWork    float64    `json:"lost_work,omitempty"`
	DownProcs   int        `json:"down_procs,omitempty"`
	DownArea    float64    `json:"down_area,omitempty"`
	Checkpoints int        `json:"checkpoints,omitempty"`
	CkptCost    float64    `json:"ckpt_cost,omitempty"`
	BusySteps   []BusyStep `json:"busy_steps,omitempty"`
	PerJob      []JobPoint `json:"per_job,omitempty"`

	SchedResizes   int     `json:"sched_resizes,omitempty"`
	ShrunkProcSecs float64 `json:"shrunk_proc_secs,omitempty"`
	ReconfigSecs   float64 `json:"reconfig_secs,omitempty"`
}

// Snapshot captures the collector state for NewCollectorFromSnapshot.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		M: c.m, Busy: c.busy, LastT: c.lastT, Area: c.area,
		HaveT0: c.haveT0, T0: c.t0, TEnd: c.tEnd,
		Waits:  append([]float64(nil), c.waits...),
		RunSum: c.runSum, SlowSum: c.slowSum, BatchSum: c.batchSum, BatchCount: c.batchCount,
		DedSum: c.dedSum, DedOnTime: c.dedOnTime, DedTotal: c.dedTotal,
		JobsStarted: c.jobsStarted, JobsDone: c.jobsDone,
		Queued: c.queued, MaxQueued: c.maxQueued,
		Killed: c.killed, Retried: c.retried, Dropped: c.dropped,
		LostWork: c.lostWork, DownProcs: c.downProcs, DownArea: c.downArea,
		Checkpoints: c.checkpoints, CkptCost: c.ckptOverhead,
		SchedResizes: c.schedResizes, ShrunkProcSecs: c.shrunkProcSecs,
		ReconfigSecs: c.reconfigSecs,
		BusySteps:    append([]BusyStep(nil), c.busySteps...),
		PerJob:       append([]JobPoint(nil), c.perJob...),
	}
}

// NewCollectorFromSnapshot reconstructs a collector mid-run.
func NewCollectorFromSnapshot(s Snapshot) *Collector {
	return &Collector{
		m: s.M, busy: s.Busy, lastT: s.LastT, area: s.Area,
		haveT0: s.HaveT0, t0: s.T0, tEnd: s.TEnd,
		waits:  append([]float64(nil), s.Waits...),
		runSum: s.RunSum, slowSum: s.SlowSum, batchSum: s.BatchSum, batchCount: s.BatchCount,
		dedSum: s.DedSum, dedOnTime: s.DedOnTime, dedTotal: s.DedTotal,
		jobsStarted: s.JobsStarted, jobsDone: s.JobsDone,
		queued: s.Queued, maxQueued: s.MaxQueued,
		killed: s.Killed, retried: s.Retried, dropped: s.Dropped,
		lostWork: s.LostWork, downProcs: s.DownProcs, downArea: s.DownArea,
		checkpoints: s.Checkpoints, ckptOverhead: s.CkptCost,
		schedResizes: s.SchedResizes, shrunkProcSecs: s.ShrunkProcSecs,
		reconfigSecs: s.ReconfigSecs,
		busySteps:    append([]BusyStep(nil), s.BusySteps...),
		perJob:       append([]JobPoint(nil), s.PerJob...),
	}
}

// Summary is the digest of one run.
type Summary struct {
	Jobs        int
	MachineSize int
	// Window is the measurement span: first arrival to last completion.
	WindowStart, WindowEnd int64

	// Utilization is the paper's mean utilization: busy processor-seconds
	// over M * window.
	Utilization float64
	// MeanWait and MeanRun are in seconds.
	MeanWait float64
	MeanRun  float64
	// Slowdown is the paper's aggregate definition:
	// (avg wait + avg runtime) / avg runtime.
	Slowdown float64

	// SteadyUtilization and SteadyMeanWait evaluate the same measures over
	// the steady-state window only — between the 10th-percentile and
	// 90th-percentile job completion instants — removing the machine-
	// filling ramp-up and the final drain, which otherwise depress
	// utilization identically for every scheduler. SteadyMeanWait covers
	// jobs that *arrived* within the window.
	SteadyUtilization float64
	SteadyMeanWait    float64
	SteadyWindow      [2]int64

	// MaxQueueDepth is the largest number of jobs simultaneously waiting.
	MaxQueueDepth int

	// Diagnostics beyond the paper's headline metrics.
	MedianWait      float64
	P95Wait         float64
	MaxWait         float64
	MeanBoundedSlow float64
	MeanBatchWait   float64
	MeanDedWait     float64
	DedicatedOnTime float64 // fraction started exactly at the requested time
	DedicatedJobs   int
	JobsStarted     int
	JobsFinished    int

	// Fault-injection accounting (all zero when no fault model is
	// configured). KilledJobs counts kills (a job killed twice counts
	// twice); RetriedJobs of those kills were requeued, DroppedJobs left
	// the system. LostWorkSeconds is the processor-seconds of completed
	// work the kills destroyed; DownProcSeconds integrates out-of-service
	// capacity over the measurement window.
	KilledJobs      int
	RetriedJobs     int
	DroppedJobs     int
	LostWorkSeconds float64
	DownProcSeconds float64

	// Checkpoint accounting (all zero when the checkpoint policy is none).
	// CheckpointsTaken counts checkpoints across all running jobs;
	// CheckpointOverheadSeconds is the total cost charged for them, in
	// processor-seconds (cost x job size per checkpoint). Under a
	// checkpoint policy LostWorkSeconds shrinks to work-since-checkpoint
	// for requeued kills, so lost work and checkpoint overhead together
	// decompose exactly what the fault pipeline cost the machine, in the
	// same processor-second currency.
	CheckpointsTaken          int
	CheckpointOverheadSeconds float64

	// Malleability accounting (all zero when Malleable mode is off).
	// SchedulerResizes counts applied system-initiated resizes (scheduler
	// proposals and fault-path shrinks); ShrunkProcSeconds is the planned
	// capacity ceded by shrinks (size reduction × remaining estimate);
	// ReconfigOverheadSeconds totals the per-resize reconfiguration cost
	// charged to resized jobs.
	SchedulerResizes        int
	ShrunkProcSeconds       float64
	ReconfigOverheadSeconds float64
}

// Summary finalizes the run. It must be called after the last completion.
func (c *Collector) Summary() Summary {
	s := Summary{
		Jobs:          c.jobsDone,
		MachineSize:   c.m,
		WindowStart:   c.t0,
		WindowEnd:     c.tEnd,
		JobsStarted:   c.jobsStarted,
		JobsFinished:  c.jobsDone,
		DedicatedJobs: c.dedTotal,

		KilledJobs:      c.killed,
		RetriedJobs:     c.retried,
		DroppedJobs:     c.dropped,
		LostWorkSeconds: c.lostWork,

		CheckpointsTaken:          c.checkpoints,
		CheckpointOverheadSeconds: c.ckptOverhead,

		SchedulerResizes:        c.schedResizes,
		ShrunkProcSeconds:       c.shrunkProcSecs,
		ReconfigOverheadSeconds: c.reconfigSecs,
	}
	c.integrate(c.tEnd)
	s.DownProcSeconds = c.downArea
	span := float64(c.tEnd - c.t0)
	if span > 0 {
		s.Utilization = c.area / (span * float64(c.m))
	}
	s.MeanWait = mean(c.waits)
	if c.jobsDone > 0 {
		s.MeanRun = c.runSum / float64(c.jobsDone)
		s.MeanBoundedSlow = c.slowSum / float64(c.jobsDone)
	}
	if s.MeanRun > 0 {
		s.Slowdown = (s.MeanWait + s.MeanRun) / s.MeanRun
	}
	if len(c.waits) > 0 {
		mx := c.waits[0]
		for _, v := range c.waits[1:] {
			if v > mx {
				mx = v
			}
		}
		s.MaxWait = mx
	}
	if c.batchCount > 0 {
		s.MeanBatchWait = c.batchSum / float64(c.batchCount)
	}
	if c.dedTotal > 0 {
		s.MeanDedWait = c.dedSum / float64(c.dedTotal)
	}
	if c.dedTotal > 0 {
		s.DedicatedOnTime = float64(c.dedOnTime) / float64(c.dedTotal)
	}
	s.SetOrderStats([]Samples{c.Samples()})
	s.MaxQueueDepth = c.maxQueued
	return s
}

// SetOrderStats fills the summary's order statistics from per-part sample
// views, concatenated in list order: MedianWait and P95Wait over the waits,
// and the steady-state window — between the 10th- and 90th-percentile
// completion instants — with the busy-area utilization and the mean wait
// of the jobs that arrived inside it. Fewer than 10 completions keep the
// whole window [WindowStart, WindowEnd] with zero steady measures.
// MachineSize and the window must be set first. The collector passes its
// own view; the sharded merge passes one per cluster, so both apply the
// same operations in the same order and the merged values are exactly
// what one global collector would report.
func (s *Summary) SetOrderStats(parts []Samples) {
	n := 0
	for _, p := range parts {
		n += len(p.Waits)
	}
	if n > 0 {
		// Exact order statistics via selection: identical values to sorting
		// the concatenation and indexing, in O(n) instead of O(n log n).
		waits := make([]float64, 0, n)
		for _, p := range parts {
			waits = append(waits, p.Waits...)
		}
		s.MedianWait = kth(waits, int(0.5*float64(n-1)))
		s.P95Wait = kth(waits, int(0.95*float64(n-1)))
	}
	s.SteadyWindow = [2]int64{s.WindowStart, s.WindowEnd}
	if n < 10 {
		return
	}
	finishes := make([]int64, 0, n)
	for _, p := range parts {
		for _, j := range p.PerJob {
			finishes = append(finishes, j.Finish)
		}
	}
	t0 := kth(finishes, n/10)
	t1 := kth(finishes, n-1-n/10)
	s.SteadyWindow = [2]int64{t0, t1}
	if t1 <= t0 {
		return
	}
	var area, wait float64
	var cnt int
	for _, p := range parts {
		area += windowArea(p.BusySteps, t0, t1)
		for _, j := range p.PerJob {
			if j.Arrival >= t0 && j.Arrival <= t1 {
				wait += j.Wait
				cnt++
			}
		}
	}
	s.SteadyUtilization = area / (float64(t1-t0) * float64(s.MachineSize))
	if cnt > 0 {
		s.SteadyMeanWait = wait / float64(cnt)
	}
}

// kth returns the k-th smallest element (0-based) of xs, reordering xs in
// place — the exact value a full sort would put at index k, computed by
// Hoare-partition quickselect with median-of-three pivots in expected O(n).
// Values must be totally ordered (the collector never records NaN waits).
func kth[T cmp.Ordered](xs []T, k int) T {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return xs[k]
		}
	}
	return xs[k]
}

// windowArea integrates a busy step function over [t0, t1]: the busy
// processor-seconds inside the window.
func windowArea(steps []BusyStep, t0, t1 int64) float64 {
	var area float64
	for i, st := range steps {
		segStart := st.T
		segEnd := t1
		if i+1 < len(steps) && steps[i+1].T < segEnd {
			segEnd = steps[i+1].T
		}
		if segStart < t0 {
			segStart = t0
		}
		if segEnd > segStart {
			area += float64(st.Busy) * float64(segEnd-segStart)
		}
		if i+1 < len(steps) && steps[i+1].T >= t1 {
			break
		}
	}
	return area
}

// String renders the headline metrics.
func (s Summary) String() string {
	return fmt.Sprintf("util=%.4f wait=%.1fs run=%.1fs slowdown=%.3f jobs=%d",
		s.Utilization, s.MeanWait, s.MeanRun, s.Slowdown, s.Jobs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Average combines summaries from repeated seeds into their arithmetic
// mean, the way each plotted point aggregates runs.
func Average(sums []Summary) Summary {
	if len(sums) == 0 {
		return Summary{}
	}
	out := sums[0]
	n := float64(len(sums))
	acc := func(get func(*Summary) *float64) {
		var t float64
		for i := range sums {
			t += *get(&sums[i])
		}
		*get(&out) = t / n
	}
	acc(func(s *Summary) *float64 { return &s.Utilization })
	acc(func(s *Summary) *float64 { return &s.MeanWait })
	acc(func(s *Summary) *float64 { return &s.MeanRun })
	acc(func(s *Summary) *float64 { return &s.Slowdown })
	acc(func(s *Summary) *float64 { return &s.MedianWait })
	acc(func(s *Summary) *float64 { return &s.P95Wait })
	acc(func(s *Summary) *float64 { return &s.MaxWait })
	acc(func(s *Summary) *float64 { return &s.MeanBoundedSlow })
	acc(func(s *Summary) *float64 { return &s.MeanBatchWait })
	acc(func(s *Summary) *float64 { return &s.MeanDedWait })
	acc(func(s *Summary) *float64 { return &s.DedicatedOnTime })
	acc(func(s *Summary) *float64 { return &s.SteadyUtilization })
	acc(func(s *Summary) *float64 { return &s.SteadyMeanWait })
	acc(func(s *Summary) *float64 { return &s.LostWorkSeconds })
	acc(func(s *Summary) *float64 { return &s.DownProcSeconds })
	acc(func(s *Summary) *float64 { return &s.CheckpointOverheadSeconds })
	acc(func(s *Summary) *float64 { return &s.ShrunkProcSeconds })
	acc(func(s *Summary) *float64 { return &s.ReconfigOverheadSeconds })
	return out
}
