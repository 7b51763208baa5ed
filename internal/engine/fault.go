package engine

import (
	"errors"
	"fmt"
	"math"

	"elastisched/internal/cwf"
	"elastisched/internal/fault"
	"elastisched/internal/job"
)

// FaultConfig attaches the failure model to a run: a fault trace (scripted,
// or sampled from MTBF/MTTR at Load over the workload's span) and the
// retry policy for killed batch jobs. Faults operate at node-group
// granularity — the machine's allocation quantum is also its failure
// domain.
type FaultConfig struct {
	// Trace is a scripted fault scenario. When nil, a trace is sampled at
	// Load from the renewal model below. Sessions read the trace while they
	// run, so it must not be modified while one is using it.
	Trace *fault.Trace

	// MTBF and MTTR parameterize the sampled model (per node group, sim
	// seconds). Used only when Trace is nil; MTBF must then be positive.
	// Sampled failures land in [0, span), span being the workload's
	// latest arrival plus estimate; a scripted Trace sets any other
	// horizon.
	MTBF float64
	MTTR float64
	// Seed selects the random stream of the sampled trace.
	Seed int64

	// Retry governs batch jobs killed by a failure. Dedicated victims are
	// always dropped. The zero value requeues immediately, full restart,
	// unlimited retries.
	Retry fault.RetryPolicy

	// Checkpoint selects when running batch jobs save restart state. With
	// any policy other than CheckpointNone, a kill restarts the victim
	// from its last checkpoint — residual estimate from the checkpoint
	// instant plus one CheckpointCost restart charge — superseding the
	// Retry.Restart full/remaining binary. CheckpointNone (the zero value)
	// is the exact pre-checkpoint behaviour.
	Checkpoint fault.CheckpointPolicy
	// CheckpointInterval is the periodic policy's interval I in sim
	// seconds (CheckpointPeriodic only; daly derives its own from MTBF).
	CheckpointInterval int64
	// CheckpointCost is the time C one checkpoint adds to the job's
	// remaining runtime, and the restart charge a kill adds when a
	// checkpoint exists to restart from.
	CheckpointCost int64
}

// ResolvedCheckpointInterval returns the base wall interval between a
// job's checkpoints under the configured policy: CheckpointInterval for
// periodic, Daly's sqrt(2*MTBF*C) for daly, 0 for none and on-resize
// (whose checkpoints ride on resizes instead of a timer). The daly value
// is the single-group interval; a running job spanning g node groups
// fails g times as often, so the engine divides the MTBF by the job's
// span when deriving its own interval (see Session.ckptIntervalFor).
func (fc *FaultConfig) ResolvedCheckpointInterval() int64 {
	switch fc.Checkpoint {
	case fault.CheckpointPeriodic:
		return fc.CheckpointInterval
	case fault.CheckpointDaly:
		return fault.DalyInterval(fc.MTBF, fc.CheckpointCost)
	}
	return 0
}

// ErrOnResizeNeedsMalleable rejects the on-resize checkpoint policy
// without the malleable pipeline: with Malleable off, resizes keep the
// legacy semantics (no runtime rescale) and carry no natural checkpoint
// boundary.
var ErrOnResizeNeedsMalleable = errors.New("engine: on-resize checkpointing needs Malleable mode")

// validate checks the fault configuration, wrapping the fault package's
// typed errors so callers can test with errors.Is.
func (fc *FaultConfig) validate() error {
	if fc.Trace == nil {
		if math.IsNaN(fc.MTBF) || fc.MTBF <= 0 {
			return fmt.Errorf("engine: fault config: %w (got %g)", fault.ErrNonPositiveMTBF, fc.MTBF)
		}
		if math.IsNaN(fc.MTTR) || fc.MTTR < 0 {
			return fmt.Errorf("engine: fault config: %w (got %g)", fault.ErrNegativeMTTR, fc.MTTR)
		}
	} else if fc.MTBF != 0 || fc.MTTR != 0 {
		return errors.New("engine: fault config has both a scripted trace and MTBF/MTTR generation parameters")
	}
	if err := fc.Retry.Validate(); err != nil {
		return fmt.Errorf("engine: fault config: %w", err)
	}
	if err := fault.ValidateCheckpoint(fc.Checkpoint, fc.CheckpointInterval, fc.CheckpointCost, fc.MTBF); err != nil {
		return fmt.Errorf("engine: fault config: %w", err)
	}
	return nil
}

// FaultTrace returns the fault trace this session runs under — the
// scripted one, or the trace sampled at Load — and nil when fault
// injection is off or no workload has been loaded.
func (s *Session) FaultTrace() *fault.Trace { return s.ftrace }

// loadFaults resolves the session's fault trace, validates it against the
// machine geometry, and registers its events as static events indexing the
// trace, which the session then only reads. Unless the configuration
// scripts a trace, one is sampled over w's span: the latest arrival plus
// estimate. Called by Load and ArmFaults only: a restored session gets its
// pending fault events from the snapshot instead.
func (s *Session) loadFaults(w *cwf.Workload) error {
	fc := s.cfg.Faults
	t := fc.Trace
	if t == nil {
		var horizon int64
		for _, j := range w.Jobs {
			horizon = max(horizon, j.Arrival+j.Dur)
		}
		if horizon <= 0 {
			// Empty workload: nothing to fail.
			s.ftrace = &fault.Trace{}
			return nil
		}
		var err error
		t, err = fault.Generate(fault.GenParams{
			Groups:  s.mach.NumGroups(),
			MTBF:    fc.MTBF,
			MTTR:    fc.MTTR,
			Horizon: horizon,
			Seed:    fc.Seed,
		})
		if err != nil {
			return fmt.Errorf("engine: sampling fault trace: %w", err)
		}
	}
	if err := t.Validate(s.mach.NumGroups()); err != nil {
		return fmt.Errorf("engine: fault trace: %w", err)
	}
	s.ftrace = t
	s.eng.GrowStatic(len(t.Events))
	for i := range t.Events {
		s.eng.AtStatic(t.Events[i].Time, faultK, i)
	}
	return nil
}

func (s *Session) faultEv(now int64, arg any) { s.applyFault(arg.(*fault.Event), now) }

// applyFault executes one failure or repair event. Failures take the named
// node groups out of service and kill every running job holding one of
// them; repairs return Down groups to service. Capacity-change deltas go
// to the collector and the policy only when the in-service size actually
// moved (re-failing a down group or repairing a healthy one is a no-op).
func (s *Session) applyFault(ev *fault.Event, now int64) {
	switch ev.Kind {
	case fault.Fail:
		failed, victims, err := s.mach.FailGroups(ev.Groups)
		if err != nil {
			// The trace was validated against this machine at Load/Restore;
			// an out-of-range group here is an engine bug.
			panic(fmt.Sprintf("engine: applying fault at t=%d: %v", now, err))
		}
		for _, id := range victims {
			j := s.active.Find(id)
			if j == nil {
				panic(fmt.Sprintf("engine: failure victim job %d not in active list at t=%d", id, now))
			}
			if s.shrinkVictim(j) {
				continue
			}
			s.kill(j, now)
		}
		if failed > 0 || len(victims) > 0 {
			s.notifyCapacity(now)
		}
	case fault.Repair:
		repaired, err := s.mach.RepairGroups(ev.Groups)
		if err != nil {
			panic(fmt.Sprintf("engine: applying repair at t=%d: %v", now, err))
		}
		if repaired > 0 {
			s.notifyCapacity(now)
		}
	default:
		panic(fmt.Sprintf("engine: fault event with unknown kind %d at t=%d", ev.Kind, now))
	}
}

// notifyCapacity reports an in-service capacity change to the collector
// and the policy's delta feed.
func (s *Session) notifyCapacity(now int64) {
	s.collector.CapacityChanged(s.mach.DownProcs(), now)
	if s.st != nil {
		s.st.CapacityChanged(now)
	}
}

// shrinkVictim tries the malleable alternative to killing a failure
// victim: drop the job's failed node groups (machine.ShrinkDraining) and
// keep it running, work-conservingly rescaled, on the healthy remainder.
// It reports whether the job survived. Only batch jobs with malleable
// bounds qualify, only in Malleable mode, and only when the surviving
// allocation stays at or above the job's minimum (on contiguous machines,
// the longest surviving contiguous run must).
func (s *Session) shrinkVictim(j *job.Job) bool {
	if !s.cfg.Malleable || j.Class != job.Batch || !j.Malleable() {
		return false
	}
	newSize, err := s.mach.ShrinkDraining(j.ID, j.MinProcs)
	if err != nil {
		return false
	}
	if newSize != j.Size {
		s.finishResize(j, newSize, true)
	}
	return true
}

// kill removes a running job hit by a node-group failure: its allocation is
// released (the failed groups go Down rather than free), its completion
// event cancelled, and the retry policy decides its fate — resubmission at
// the head of the batch queue after the backoff, or leaving the system as
// Dropped. Dedicated victims are always dropped: their rigid start time has
// passed.
func (s *Session) kill(j *job.Job, now int64) {
	if err := s.mach.Release(j.ID); err != nil {
		panic(fmt.Sprintf("engine: killing job %d: %v", j.ID, err))
	}
	s.active.Remove(j)
	s.eng.Cancel(s.getCompletion(j.ID))
	s.completion.Delete(j.ID)
	s.cancelCheckpoint(j.ID)

	p := s.cfg.Faults.Retry
	ckpt := s.cfg.Faults.Checkpoint
	requeue := j.Class == job.Batch && p.Mode == fault.Requeue &&
		(p.MaxRetries == 0 || j.Retries < p.MaxRetries)

	// Lost work: a requeued victim with a checkpoint loses only the work
	// done since it (a dropped one loses everything it ran — checkpoints
	// cannot help a job that never comes back).
	lostFrom := j.StartTime
	if requeue && ckpt != fault.CheckpointNone && j.CkptAt > lostFrom {
		lostFrom = j.CkptAt
	}
	s.collector.JobKilled(j, now, requeue, lostFrom)
	if s.st != nil {
		s.st.JobKilled(j, now)
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.JobKilled(j, now)
	}

	if !requeue {
		j.State = job.Dropped
		j.FinishTime = now
		return
	}

	// Reshape the job for resubmission.
	//
	// Under a checkpoint policy the resubmission resumes from the last
	// checkpoint: the estimate becomes the residual from the checkpoint
	// instant plus one CheckpointCost restart charge (no charge when no
	// checkpoint was taken — there is no saved state to reload), and the
	// actual runtime loses the work completed before the checkpoint. Both
	// are clamped to at least one second (the failure may land exactly at
	// the kill-by instant). This supersedes the Restart binary below.
	//
	// Without a checkpoint policy, RemainingRuntime keeps only the
	// unfinished work (the pre-checkpoint model of a free, always-current
	// checkpoint) and FullRuntime restarts from scratch with the job's
	// current requirements.
	if ckpt != fault.CheckpointNone {
		last := j.CkptAt
		var restart int64
		if last > j.StartTime {
			restart = s.cfg.Faults.CheckpointCost
		}
		eff := j.EffectiveRuntime()
		j.Dur = max64(j.EndTime-last, 1) + restart
		if j.Actual > 0 {
			j.Actual = max64(eff-(last-j.StartTime), 1) + restart
		}
	} else if p.Restart == fault.RemainingRuntime {
		eff := j.EffectiveRuntime()
		elapsed := now - j.StartTime
		j.Dur = max64(j.EndTime-now, 1)
		if j.Actual > 0 {
			j.Actual = max64(eff-elapsed, 1)
		}
	}
	j.Retries++
	j.Arrival = now + p.Backoff
	// Rigid entitles the resubmission to the head of the batch queue,
	// exactly like a dedicated job moved by Algorithm 3.
	j.Rigid = true
	j.State = job.Waiting
	s.eng.AtArg(j.Arrival, s.arriveH, j)
}

// --- checkpointing --------------------------------------------------------
//
// Periodic and daly policies run an explicit per-job event chain: the first
// checkpoint is scheduled at dispatch + I, and each checkpoint schedules
// the next at its own instant + C + I (the job spends C writing the
// checkpoint, then I of useful work). Explicit events — rather than
// arithmetic folded into the completion time — keep the chain correct when
// resizes or ECC commands stretch and shrink the job's timeline mid-run.
//
// Event-order ties are deterministic and favor not checkpointing: fault
// events are registered at Load (or ArmFaults), before the first dispatch,
// so their sequence numbers precede every checkpoint's and at an equal
// timestamp a kill dispatches first and cancels the checkpoint; a
// completion re-scheduled by the checkpoint handler's retime carries a
// lower sequence number than the next checkpoint it schedules, so a
// completion landing exactly on a checkpoint instant also wins. The audit
// oracle's chain replay depends on exactly these tie rules.

func (s *Session) ckptEv(now int64, arg any) { s.checkpoint(arg.(*job.Job), now) }

// ckptIntervalFor returns the wall interval before job j's next
// checkpoint. Periodic jobs all share the configured interval. Daly jobs
// each get their own optimum: the configured MTBF is per node group, and
// a job spanning g groups is killed by any of them, so it experiences
// MTBF/g and its interval is sqrt(2·(MTBF/g)·C). A malleable resize can
// change the span; the chain picks up the new interval at the next link.
func (s *Session) ckptIntervalFor(j *job.Job) int64 {
	if s.cfg.Faults.Checkpoint == fault.CheckpointDaly {
		if g := (j.Size + s.cfg.Unit - 1) / s.cfg.Unit; g > 1 {
			return fault.DalyInterval(s.cfg.Faults.MTBF/float64(g), s.cfg.Faults.CheckpointCost)
		}
	}
	return s.ckptEvery
}

// scheduleFirstCheckpoint opens a dispatched batch job's checkpoint chain.
func (s *Session) scheduleFirstCheckpoint(j *job.Job, now int64) {
	if s.ckptEvery == 0 || j.Class != job.Batch {
		return
	}
	s.ckpt.Put(j.ID, s.eng.AtArg(now+s.ckptIntervalFor(j), s.ckptH, j))
}

// cancelCheckpoint cancels a job's pending checkpoint event, if any — the
// job is leaving the machine (completion or kill).
func (s *Session) cancelCheckpoint(id int) {
	if h, ok := s.ckpt.Get(id); ok {
		s.eng.Cancel(h)
		s.ckpt.Delete(id)
	}
}

// checkpoint executes one checkpoint of a running job: the cost C is
// charged to the job's remaining runtime (estimate and actual both — the
// machine really is occupied that much longer), the restart point moves to
// this instant, and the next checkpoint is chained (its handle overwrites
// the one that just fired).
func (s *Session) checkpoint(j *job.Job, now int64) {
	c := s.cfg.Faults.CheckpointCost
	if c > 0 {
		oldEnd := j.EndTime
		j.EndTime += c
		j.Dur = j.EndTime - j.StartTime
		if j.Actual > 0 {
			j.Actual += c
		}
		s.RetimeRunning(j, oldEnd)
	}
	j.CkptAt = now
	s.collector.CheckpointTaken(c, j.Size)
	s.ckpt.Put(j.ID, s.eng.AtArg(now+c+s.ckptIntervalFor(j), s.ckptH, j))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
