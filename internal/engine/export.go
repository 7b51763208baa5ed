package engine

import (
	"errors"
	"fmt"

	"elastisched/internal/cwf"
	"elastisched/internal/job"
	"elastisched/internal/metrics"
)

// This file is the engine half of the sharded dispatcher's epoch protocol:
// read-only queue exports for barrier digests, the sample view the merge
// reads, Withdraw/AbsorbAt to move a queued job between sessions, and
// ArmFaults for sessions fed by Inject instead of Load. Everything here
// operates at instant boundaries only — the dispatcher calls between
// RunUntil rounds, never mid-instant.

// Typed errors of the withdraw/absorb pair, testable with errors.Is.
var (
	// ErrNotStealable rejects withdrawing a job that is not a waiting,
	// non-rigid batch job sitting in this session's queue.
	ErrNotStealable = errors.New("engine: withdraw needs a waiting batch job owned by this session")
	// ErrFaultsArmed rejects arming a session whose fault trace is already
	// resolved (a second ArmFaults, or ArmFaults after Load).
	ErrFaultsArmed = errors.New("engine: fault trace already armed")
)

// WaitingBatch returns the batch queue's jobs in queue order. The slice
// aliases the live queue: it is valid only until the session next runs or
// mutates the queue, and callers must not modify it.
func (s *Session) WaitingBatch() []*job.Job { return s.batch.Jobs() }

// ActiveJobs returns the running jobs in residual (kill-by) order, under
// the same aliasing contract as WaitingBatch.
func (s *Session) ActiveJobs() []*job.Job { return s.active.Jobs() }

// Samples returns a view of the per-job series the session's metrics are
// computed from (see metrics.Samples), under the same aliasing contract as
// WaitingBatch. Read right after Result, it is what the sharded merge needs
// for exact global order statistics, at no copying cost.
func (s *Session) Samples() metrics.Samples { return s.collector.Samples() }

// FreeProcs returns the machine's free in-service processors.
func (s *Session) FreeProcs() int { return s.mach.Free() }

// Withdraw removes a waiting batch job from this session, reversing its
// admission: the job leaves the queue, the collector's queue depth, the
// session's ownership set, and the policy is told the queue changed. The
// caller owns the returned state (typically to AbsorbAt it into another
// session). Rigid jobs — failure victims entitled to the queue head — and
// jobs that are running, dedicated, or foreign are refused.
func (s *Session) Withdraw(j *job.Job) error {
	if s.failed != nil {
		return s.failed
	}
	if j.Class != job.Batch || j.Rigid || j.State != job.Waiting || s.batch.Find(j.ID) != j {
		return fmt.Errorf("%w (job %d)", ErrNotStealable, j.ID)
	}
	s.batch.Remove(j)
	s.collector.JobWithdrawn()
	if s.st != nil {
		s.st.QueueChanged()
	}
	for i, owned := range s.jobs {
		if owned == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	if s.ids != nil {
		s.ids.Delete(j.ID)
	}
	return nil
}

// AbsorbAt admits a job withdrawn from another session, scheduling its
// (re-)arrival at instant at — the epoch barrier. The job keeps its
// original Arrival, so its wait accounting spans clusters; only the queue
// position follows the admission instant (see the paranoid FIFO exemption).
// The job is cloned; the caller's struct is not retained.
func (s *Session) AbsorbAt(j *job.Job, at int64) error {
	if s.failed != nil {
		return s.failed
	}
	if j.Class != job.Batch {
		return fmt.Errorf("engine: absorb non-batch job %d", j.ID)
	}
	if at < s.eng.Now() {
		return fmt.Errorf("engine: absorb job %d at %d before now %d", j.ID, at, s.eng.Now())
	}
	if j.Size > s.cfg.M {
		return fmt.Errorf("engine: absorb job %d of size %d exceeding machine %d", j.ID, j.Size, s.cfg.M)
	}
	clone, err := s.admit(j, at, "absorb")
	if err != nil {
		return err
	}
	s.ids.Put(clone.ID, true)
	return nil
}

// absorbed reports whether the job with this ID was admitted by AbsorbAt.
func (s *Session) absorbed(id int) bool {
	if s.ids == nil {
		return false
	}
	v, _ := s.ids.Get(id)
	return v
}

// ArmFaults resolves and schedules the session's fault trace for a session
// that is fed by Inject instead of Load (the epoch dispatcher's path; Load
// arms its own). part is the workload the session will be fed: a sampled
// trace covers its span exactly as Load's would; a scripted trace ignores
// it. Must be called before any event has been dispatched, and at most
// once.
func (s *Session) ArmFaults(part *cwf.Workload) error {
	if s.cfg.Faults == nil {
		return nil
	}
	if s.ftrace != nil {
		return ErrFaultsArmed
	}
	if s.eng.Dispatched() > 0 {
		return errors.New("engine: ArmFaults after events were dispatched")
	}
	return s.loadFaults(part)
}
