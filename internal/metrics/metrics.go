// Package metrics collects the performance measures the paper reports:
// mean system utilization (time-integrated busy fraction), mean job waiting
// time, and slowdown defined as (avg wait + avg runtime)/avg runtime
// (Section V). It also records richer diagnostics — per-class waits,
// percentiles, per-job bounded slowdown, dedicated on-time rate — used by
// the extended benches.
package metrics

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"elastisched/internal/job"
	"elastisched/internal/stats"
)

// Collector accumulates events during one simulation run. Its whole
// accumulator state is one Snapshot record, so a snapshot is a deep copy of
// it and a restored collector continues from exactly that record.
type Collector struct{ st Snapshot }

// NewCollector returns a collector for a machine of m processors.
func NewCollector(m int) *Collector {
	return &Collector{Snapshot{M: m}}
}

// Reset clears every accumulator, leaving the collector as NewCollector(m)
// builds it, and presizes it for a run of n jobs, so the per-job series
// and the busy step function grow without reallocation. It reuses the
// series' storage: Samples views taken before the Reset are invalid after
// it.
func (c *Collector) Reset(m, n int) {
	c.st = Snapshot{
		M:         m,
		Waits:     slices.Grow(c.st.Waits[:0], n),
		PerJob:    slices.Grow(c.st.PerJob[:0], n),
		BusySteps: slices.Grow(c.st.BusySteps[:0], 2*n),
	}
}

// integrate advances the busy-area and down-capacity integrals to time t.
func (c *Collector) integrate(t int64) {
	if t > c.st.LastT {
		dt := float64(t - c.st.LastT)
		c.st.Area += float64(c.st.Busy) * dt
		if c.st.DownProcs > 0 {
			c.st.DownArea += float64(c.st.DownProcs) * dt
		}
		c.st.LastT = t
	}
}

// noteBusy appends to the busy step function (coalescing same-instant
// changes).
func (c *Collector) noteBusy(t int64) {
	if n := len(c.st.BusySteps); n > 0 && c.st.BusySteps[n-1].T == t {
		c.st.BusySteps[n-1].Busy = c.st.Busy
		return
	}
	c.st.BusySteps = append(c.st.BusySteps, BusyStep{t, c.st.Busy})
}

// JobArrived opens the measurement window at the first arrival and tracks
// the waiting-queue depth.
func (c *Collector) JobArrived(j *job.Job, t int64) {
	if !c.st.HaveT0 || t < c.st.T0 {
		if !c.st.HaveT0 {
			c.st.LastT = t
		}
		c.st.T0 = t
		c.st.HaveT0 = true
	}
	c.st.Queued++
	if c.st.Queued > c.st.MaxQueued {
		c.st.MaxQueued = c.st.Queued
	}
}

// JobWithdrawn reverses a JobArrived for a job leaving the waiting queue
// without starting — the sharded dispatcher's steal path, where the job
// re-arrives (and re-counts) on the receiving cluster's collector. Only the
// queue depth moves: the measurement window stays open, and the job's wait
// is accounted where it eventually starts.
func (c *Collector) JobWithdrawn() {
	c.st.Queued--
}

// JobStarted accounts for a dispatch at time t.
func (c *Collector) JobStarted(j *job.Job, t int64) {
	c.integrate(t)
	c.st.Busy += j.Size
	c.st.JobsStarted++
	c.st.Queued--
	if c.st.Busy > c.st.M {
		panic(fmt.Sprintf("metrics: busy %d exceeds machine %d at t=%d", c.st.Busy, c.st.M, t))
	}
	c.noteBusy(t)
}

// JobFinished accounts for a completion at time t.
func (c *Collector) JobFinished(j *job.Job, t int64) {
	c.integrate(t)
	c.st.Busy -= j.Size
	if c.st.Busy < 0 {
		panic(fmt.Sprintf("metrics: negative busy %d at t=%d", c.st.Busy, t))
	}
	c.noteBusy(t)
	c.st.JobsDone++
	if t > c.st.TEnd {
		c.st.TEnd = t
	}

	w := float64(j.Wait())
	c.st.PerJob = append(c.st.PerJob, JobPoint{Arrival: j.Arrival, Finish: t, Wait: w})
	r := float64(j.RunTime())
	c.st.Waits = append(c.st.Waits, w)
	c.st.RunSum += r
	// Per-job bounded slowdown with the conventional 10s floor.
	den := math.Max(r, 10)
	c.st.SlowSum += (w + math.Max(r, 10)) / den
	if j.Class == job.Dedicated {
		c.st.DedTotal++
		c.st.DedSum += w
		if j.Wait() == 0 {
			c.st.DedOnTime++
		}
	} else {
		c.st.BatchSum += w
		c.st.BatchCount++
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
	c.st.Busy -= j.Size
	if c.st.Busy < 0 {
		panic(fmt.Sprintf("metrics: negative busy %d after kill at t=%d", c.st.Busy, t))
	}
	c.noteBusy(t)
	c.st.Killed++
	if lost := t - lostFrom; lost > 0 {
		c.st.LostWork += float64(lost) * float64(j.Size)
	}
	if requeued {
		c.st.Retried++
	} else {
		c.st.Dropped++
	}
}

// CheckpointTaken counts one checkpoint and the cost charged to the job's
// remaining runtime for taking it (zero-cost checkpoints still count). The
// overhead accumulates in processor-seconds — cost x size, since all of
// the job's processors stay occupied for the extra time — so it is
// directly comparable against LostWorkSeconds in the cost trade.
func (c *Collector) CheckpointTaken(cost int64, size int) {
	c.st.Checkpoints++
	c.st.CkptCost += float64(cost) * float64(size)
}

// CapacityChanged records the out-of-service processor count after a
// failure or repair at time t, feeding the down-capacity integral.
func (c *Collector) CapacityChanged(downProcs int, t int64) {
	c.integrate(t)
	c.st.DownProcs = downProcs
}

// SizeChanged accounts for an EP/RP resize of a running job at time t.
func (c *Collector) SizeChanged(delta int, t int64) {
	c.integrate(t)
	c.st.Busy += delta
	if c.st.Busy < 0 || c.st.Busy > c.st.M {
		panic(fmt.Sprintf("metrics: busy %d out of range after resize at t=%d", c.st.Busy, t))
	}
	c.noteBusy(t)
}

// SchedulerResized counts one applied system-initiated resize (a scheduler
// proposal or a fault-path shrink).
func (c *Collector) SchedulerResized() { c.st.SchedResizes++ }

// ProcsShrunk adds the processor-seconds of planned capacity a shrink ceded
// (the size reduction times the remaining estimated runtime at the shrink).
func (c *Collector) ProcsShrunk(procSeconds float64) { c.st.ShrunkProcSecs += procSeconds }

// ResizeOverheadApplied adds the reconfiguration cost charged to one
// work-conserving resize.
func (c *Collector) ResizeOverheadApplied(seconds int64) { c.st.ReconfigSecs += float64(seconds) }

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
	return Samples{Waits: c.st.Waits, PerJob: c.st.PerJob, BusySteps: c.st.BusySteps}
}

// Snapshot is the collector's complete accumulator state, sufficient to
// resume metering mid-run; the Collector keeps its state in exactly this
// record. The per-job series keep their accumulation order, so a restored
// collector's Summary is bit-identical to the uninterrupted run's (float
// sums depend on order).
type Snapshot struct {
	M      int     `json:"m"`
	Busy   int     `json:"busy"`
	LastT  int64   `json:"last_t"`
	Area   float64 `json:"area"`
	HaveT0 bool    `json:"have_t0"`
	T0     int64   `json:"t0"`
	TEnd   int64   `json:"t_end"`
	// Waits is kept as a full series: the summary reports order statistics
	// (median, p95, max) that need every sample. The remaining per-job
	// measures only ever feed arithmetic means, so they accumulate as
	// streaming sums.
	Waits       []float64 `json:"waits,omitempty"`
	RunSum      float64   `json:"run_sum"`
	SlowSum     float64   `json:"slow_sum"`
	BatchSum    float64   `json:"batch_sum"`
	BatchCount  int       `json:"batch_count"`
	DedSum      float64   `json:"ded_sum"`
	DedOnTime   int       `json:"ded_on_time"`
	DedTotal    int       `json:"ded_total"`
	JobsStarted int       `json:"jobs_started"`
	JobsDone    int       `json:"jobs_done"`
	Queued      int       `json:"queued"`
	MaxQueued   int       `json:"max_queued"`
	// Fault accounting: jobs killed by node-group failures, how they were
	// dispatched afterwards, the processor-seconds of work the kills
	// destroyed, and the integral of out-of-service capacity.
	Killed    int     `json:"killed,omitempty"`
	Retried   int     `json:"retried,omitempty"`
	Dropped   int     `json:"dropped,omitempty"`
	LostWork  float64 `json:"lost_work,omitempty"`
	DownProcs int     `json:"down_procs,omitempty"`
	DownArea  float64 `json:"down_area,omitempty"`
	// Checkpoint accounting: checkpoints taken by running jobs and the
	// total cost charged for them, in processor-seconds.
	Checkpoints int     `json:"checkpoints,omitempty"`
	CkptCost    float64 `json:"ckpt_cost,omitempty"`
	// BusySteps records the busy-count step function (one entry per
	// change) so steady-state windows can be evaluated after the fact.
	BusySteps []BusyStep `json:"busy_steps,omitempty"`
	// PerJob records (arrival, finish, wait) per completed job for
	// windowed wait statistics.
	PerJob []JobPoint `json:"per_job,omitempty"`

	// Malleability accounting: system-initiated resizes applied, the
	// processor-seconds of planned capacity ceded by shrinks, and the total
	// reconfiguration overhead charged to resized jobs.
	SchedResizes   int     `json:"sched_resizes,omitempty"`
	ShrunkProcSecs float64 `json:"shrunk_proc_secs,omitempty"`
	ReconfigSecs   float64 `json:"reconfig_secs,omitempty"`
}

// ErrBadSnapshot marks a metrics snapshot whose per-job series disagree
// with its counters: JobFinished appends exactly one wait and one per-job
// record per completion, and the busy step function advances in time, so
// no captured collector can produce one.
var ErrBadSnapshot = errors.New("metrics: inconsistent snapshot")

// Snapshot captures the collector state for NewCollectorFromSnapshot.
func (c *Collector) Snapshot() Snapshot { return c.st.clone() }

// NewCollectorFromSnapshot reconstructs a collector mid-run. It refuses,
// with an error wrapping ErrBadSnapshot, a snapshot whose Waits or PerJob
// length differs from JobsDone or whose BusySteps times decrease.
func NewCollectorFromSnapshot(s Snapshot) (*Collector, error) {
	if len(s.Waits) != s.JobsDone || len(s.PerJob) != s.JobsDone {
		return nil, fmt.Errorf("%w: %d waits and %d per-job records for %d finished jobs",
			ErrBadSnapshot, len(s.Waits), len(s.PerJob), s.JobsDone)
	}
	for i := 1; i < len(s.BusySteps); i++ {
		if s.BusySteps[i].T < s.BusySteps[i-1].T {
			return nil, fmt.Errorf("%w: busy step %d at t=%d precedes t=%d",
				ErrBadSnapshot, i, s.BusySteps[i].T, s.BusySteps[i-1].T)
		}
	}
	return &Collector{s.clone()}, nil
}

// clone returns s with its own copies of the three series.
func (s Snapshot) clone() Snapshot {
	s.Waits = append([]float64(nil), s.Waits...)
	s.BusySteps = append([]BusyStep(nil), s.BusySteps...)
	s.PerJob = append([]JobPoint(nil), s.PerJob...)
	return s
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
		Jobs:          c.st.JobsDone,
		MachineSize:   c.st.M,
		WindowStart:   c.st.T0,
		WindowEnd:     c.st.TEnd,
		JobsStarted:   c.st.JobsStarted,
		JobsFinished:  c.st.JobsDone,
		DedicatedJobs: c.st.DedTotal,

		KilledJobs:      c.st.Killed,
		RetriedJobs:     c.st.Retried,
		DroppedJobs:     c.st.Dropped,
		LostWorkSeconds: c.st.LostWork,

		CheckpointsTaken:          c.st.Checkpoints,
		CheckpointOverheadSeconds: c.st.CkptCost,

		SchedulerResizes:        c.st.SchedResizes,
		ShrunkProcSeconds:       c.st.ShrunkProcSecs,
		ReconfigOverheadSeconds: c.st.ReconfigSecs,
	}
	c.integrate(c.st.TEnd)
	s.DownProcSeconds = c.st.DownArea
	span := float64(c.st.TEnd - c.st.T0)
	if span > 0 {
		s.Utilization = c.st.Area / (span * float64(c.st.M))
	}
	s.MeanWait = stats.Mean(c.st.Waits)
	if c.st.JobsDone > 0 {
		s.MeanRun = c.st.RunSum / float64(c.st.JobsDone)
		s.MeanBoundedSlow = c.st.SlowSum / float64(c.st.JobsDone)
	}
	if s.MeanRun > 0 {
		s.Slowdown = (s.MeanWait + s.MeanRun) / s.MeanRun
	}
	if len(c.st.Waits) > 0 {
		mx := c.st.Waits[0]
		for _, v := range c.st.Waits[1:] {
			if v > mx {
				mx = v
			}
		}
		s.MaxWait = mx
	}
	if c.st.BatchCount > 0 {
		s.MeanBatchWait = c.st.BatchSum / float64(c.st.BatchCount)
	}
	if c.st.DedTotal > 0 {
		s.MeanDedWait = c.st.DedSum / float64(c.st.DedTotal)
	}
	if c.st.DedTotal > 0 {
		s.DedicatedOnTime = float64(c.st.DedOnTime) / float64(c.st.DedTotal)
	}
	s.SetOrderStats([]Samples{c.Samples()})
	s.MaxQueueDepth = c.st.MaxQueued
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
