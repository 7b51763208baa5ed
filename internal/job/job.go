// Package job defines the job model and the three scheduler-facing
// collections from the paper's Notations box: the FIFO batch waiting queue
// W^b, the start-time-sorted dedicated waiting list W^d, and the
// residual-sorted active list A. The collections enforce the paper's
// invariants (FIFO by arrival, sorted by requested start, sorted by residual
// execution time).
package job

import "fmt"

// Class distinguishes batch jobs (scheduled whenever the scheduler finds it
// best) from dedicated/interactive jobs (rigid user-requested start time).
type Class uint8

// Job classes.
const (
	Batch Class = iota
	Dedicated
)

// String returns "batch" or "dedicated".
func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Dedicated:
		return "dedicated"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// State is the lifecycle state of a job.
type State uint8

// Job lifecycle states.
const (
	Waiting State = iota
	Running
	Finished
	// Dropped marks a job killed by a node-group failure and removed from
	// the system without completing: a dedicated victim (its rigid start
	// has passed), a victim under a Drop retry policy, or one whose retry
	// budget is exhausted.
	Dropped
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Running:
		return "running"
	case Finished:
		return "finished"
	case Dropped:
		return "dropped"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Job is a parallel job: the batch tuple (num, dur, arr, scount) or the
// dedicated tuple (num, dur, start) from the paper, plus runtime bookkeeping.
//
// Dur is the *current* user-estimated execution time; Elastic Control
// Commands mutate it (and, for a running job, the kill-by time EndTime).
type Job struct {
	ID    int
	Class Class

	Size    int   // num: processors required
	Dur     int64 // dur: current user-estimated execution time, seconds
	Arrival int64 // arr: submit time
	// Actual is the job's true execution time. Zero means "equals the
	// estimate" (the paper's synthetic workloads). When positive and below
	// Dur the job terminates prematurely; when above, it is killed at its
	// kill-by time — the two termination modes the paper's Section II-A
	// describes. Schedulers never read Actual: they plan with estimates.
	Actual int64
	// ReqStart is the user-requested start time for dedicated jobs; -1 for
	// batch jobs (CWF field 19).
	ReqStart int64

	// SCount is the skip count: the number of scheduling cycles in which this
	// job sat at the head of the batch queue but was not selected by
	// Basic_DP. Compared against the threshold C_s by Delayed-LOS.
	SCount int
	// LastSkip is the last simulated instant at which SCount was bumped.
	// The engine may re-invoke the scheduler several times within one
	// instant (its fixed-point loop); a head job is only charged one skip
	// per distinct instant. Initialized to -1 by the engine at arrival.
	LastSkip int64
	// Rigid marks a job entitled to the head of the batch queue: a
	// dedicated job moved by Move_Dedicated_Head_To_Batch_Head, or a
	// failure victim resubmitted at the head by the retry policy.
	Rigid bool
	// Retries counts how many times this job has been killed by a
	// node-group failure and requeued.
	Retries int

	// MinProcs and MaxProcs are the job's malleable processor bounds: the
	// scheduler (and the fault path) may resize a running malleable job to
	// any quantized allocation within [MinProcs, MaxProcs]. Both zero means
	// the job is rigid — the default, preserving prior behaviour: only
	// client EP/RP commands ever touch its size, and scheduler-initiated
	// resizing never considers it.
	MinProcs int
	MaxProcs int

	// CkptAt is the absolute time of this attempt's last checkpoint;
	// equals StartTime while none has been taken. Meaningful only while
	// Running under an engine checkpoint policy — a kill restarts the job
	// from here instead of from the Restart binary.
	CkptAt int64

	State     State
	StartTime int64 // actual dispatch time; meaningful once Running
	EndTime   int64 // kill-by time StartTime+Dur; meaningful once Running
	// FinishTime is when the job actually left the machine (equals EndTime
	// unless an RT command truncated it below the elapsed time).
	FinishTime int64
}

// Residual returns the remaining execution time at time now for a running
// job (res in the paper's active-list tuple). It is estimate-based: the
// scheduler's knowledge of the future is the kill-by time, not the actual
// termination instant.
func (j *Job) Residual(now int64) int64 {
	return j.EndTime - now
}

// EffectiveRuntime returns the time the job will actually occupy the
// machine once started: its actual runtime capped by the (current)
// estimate, since a job overrunning its kill-by time is killed.
func (j *Job) EffectiveRuntime() int64 {
	if j.Actual > 0 && j.Actual < j.Dur {
		return j.Actual
	}
	return j.Dur
}

// Malleable reports whether the job carries processor bounds that allow
// scheduler-initiated resizing.
func (j *Job) Malleable() bool { return j.MaxProcs > 0 }

// RescaleRemaining converts a remaining duration under oldSize processors
// into the equivalent duration under newSize processors, conserving the
// remaining work in processor-seconds: rem*oldSize proc-seconds spread over
// newSize processors, rounded up to whole seconds (so the rescaled job
// never finishes with work outstanding). Non-positive remainders pass
// through unchanged — there is no work left to conserve.
func RescaleRemaining(rem int64, oldSize, newSize int) int64 {
	if rem <= 0 || oldSize == newSize {
		return rem
	}
	work := rem * int64(oldSize)
	return (work + int64(newSize) - 1) / int64(newSize)
}

// Wait returns the job's waiting time: start minus arrival for batch jobs,
// and start minus the requested start for dedicated jobs (a dedicated job
// started exactly on time has waited zero).
func (j *Job) Wait() int64 {
	if j.Class == Dedicated && j.ReqStart >= 0 {
		w := j.StartTime - j.ReqStart
		if w < 0 {
			w = 0
		}
		return w
	}
	return j.StartTime - j.Arrival
}

// RunTime returns the time the job actually occupied the machine.
func (j *Job) RunTime() int64 { return j.FinishTime - j.StartTime }

// String renders a compact description for logs and tests.
func (j *Job) String() string {
	if j.Class == Dedicated {
		return fmt.Sprintf("job{%d %s num=%d dur=%d start=%d}", j.ID, j.Class, j.Size, j.Dur, j.ReqStart)
	}
	return fmt.Sprintf("job{%d %s num=%d dur=%d arr=%d sc=%d}", j.ID, j.Class, j.Size, j.Dur, j.Arrival, j.SCount)
}

// Validate checks the paper's invariant constraints for a single job against
// machine size m (num <= M; dedicated start >= arrival; positive duration).
func (j *Job) Validate(m int) error {
	if j.Size <= 0 || j.Size > m {
		return fmt.Errorf("job %d: size %d out of range (machine %d)", j.ID, j.Size, m)
	}
	if j.Dur <= 0 {
		return fmt.Errorf("job %d: non-positive duration %d", j.ID, j.Dur)
	}
	if j.Arrival < 0 {
		return fmt.Errorf("job %d: negative arrival %d", j.ID, j.Arrival)
	}
	if j.Class == Dedicated && j.ReqStart < j.Arrival {
		return fmt.Errorf("job %d: dedicated start %d before arrival %d", j.ID, j.ReqStart, j.Arrival)
	}
	if j.Actual < 0 {
		return fmt.Errorf("job %d: negative actual runtime %d", j.ID, j.Actual)
	}
	if j.MaxProcs > 0 {
		if j.Class == Dedicated {
			return fmt.Errorf("job %d: dedicated jobs cannot carry malleable bounds", j.ID)
		}
		if j.MinProcs < 1 || j.MinProcs > j.Size {
			return fmt.Errorf("job %d: min procs %d outside [1, size %d]", j.ID, j.MinProcs, j.Size)
		}
		if j.MaxProcs < j.Size || j.MaxProcs > m {
			return fmt.Errorf("job %d: max procs %d outside [size %d, machine %d]", j.ID, j.MaxProcs, j.Size, m)
		}
	} else if j.MinProcs != 0 {
		return fmt.Errorf("job %d: min procs %d without max procs", j.ID, j.MinProcs)
	}
	return nil
}
