// Package ecc implements the paper's Elastic Control Command processor
// (Section III-C, Figure 3): commands from the elastic control queue are
// applied first-come first-served, mutating the execution-time requirement
// (and thus the kill-by time) of previously submitted jobs — whether still
// queued or already running. Appending this processor to a scheduler yields
// its -E variant (EASY-E, LOS-E, Delayed-LOS-E, EASY-DE, LOS-DE,
// Hybrid-LOS-E).
//
// ET/RT change the time dimension, the paper's focus. EP/RP change the size
// dimension — the paper's future work — and are implemented as
// shrink-always / grow-if-free.
package ecc

import (
	"fmt"

	"elastisched/internal/cwf"
	"elastisched/internal/job"
)

// Target is the engine surface the processor mutates. The engine owns event
// rescheduling and machine allocation; the processor owns command
// validation, per-job limits and accounting.
type Target interface {
	// Now returns the current simulated time.
	Now() int64
	// FindWaiting returns the waiting (batch- or dedicated-queued) job with
	// the ID, or nil.
	FindWaiting(id int) *job.Job
	// FindRunning returns the running job with the ID, or nil.
	FindRunning(id int) *job.Job
	// RetimeRunning must be called after a running job's EndTime changed:
	// the engine re-sorts the active list and reschedules the completion
	// event (an EndTime at or before Now completes the job immediately).
	// oldEnd is the kill-by time before the mutation, so the engine can
	// propagate the delta to capacity caches.
	RetimeRunning(j *job.Job, oldEnd int64)
	// TouchWaiting must be called after a waiting job's requirements (Dur
	// or Size) were mutated in place, so the engine can invalidate
	// queue-derived scheduler state.
	TouchWaiting(j *job.Job)
	// ResizeRunning changes a running job's allocation to newSize
	// processors (already quantized). Growing fails if the free capacity
	// is insufficient.
	ResizeRunning(j *job.Job, newSize int) error
	// MachineTotal and MachineUnit describe the machine geometry.
	MachineTotal() int
	MachineUnit() int
}

// Outcome classifies what happened to one command.
type Outcome uint8

// Outcomes.
const (
	Applied         Outcome = iota // applied as requested
	Clamped                        // applied, but the amount was truncated
	IgnoredFinished                // job already left the system
	IgnoredUnknown                 // no such job
	IgnoredLimit                   // per-job command budget exhausted
	IgnoredCapacity                // EP with insufficient free capacity
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Applied:
		return "applied"
	case Clamped:
		return "clamped"
	case IgnoredFinished:
		return "ignored-finished"
	case IgnoredUnknown:
		return "ignored-unknown"
	case IgnoredLimit:
		return "ignored-limit"
	case IgnoredCapacity:
		return "ignored-capacity"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Stats accumulates processor accounting across a run.
type Stats struct {
	Total           int
	Applied         int
	Clamped         int
	IgnoredFinished int
	IgnoredUnknown  int
	IgnoredLimit    int
	IgnoredCapacity int
	// ExtendedSeconds and ReducedSeconds are the net time deltas applied.
	ExtendedSeconds int64
	ReducedSeconds  int64
	// GrownProcs and ShrunkProcs are the net size deltas applied.
	GrownProcs  int
	ShrunkProcs int
}

// Add returns the field-wise sum of s and o — the one place aggregations
// across clusters or seeds combine accounting.
func (s Stats) Add(o Stats) Stats {
	s.Total += o.Total
	s.Applied += o.Applied
	s.Clamped += o.Clamped
	s.IgnoredFinished += o.IgnoredFinished
	s.IgnoredUnknown += o.IgnoredUnknown
	s.IgnoredLimit += o.IgnoredLimit
	s.IgnoredCapacity += o.IgnoredCapacity
	s.ExtendedSeconds += o.ExtendedSeconds
	s.ReducedSeconds += o.ReducedSeconds
	s.GrownProcs += o.GrownProcs
	s.ShrunkProcs += o.ShrunkProcs
	return s
}

// Processor applies ECCs in FCFS order. Size commands on a malleable job
// clamp to its MinProcs and MaxProcs as the engine admitted them —
// multiples of the allocation unit with MinProcs <= Size <= MaxProcs — and
// keep that invariant; the processor never re-quantizes the bounds.
type Processor struct {
	// MaxPerJob caps how many commands a single job may consume; 0 means
	// unlimited. The paper: "A maximum count on number of ECCs can be
	// imposed for a given job."
	MaxPerJob int

	Stats   Stats
	applied map[int]int
}

// NewProcessor returns a processor with the given per-job command budget.
func NewProcessor(maxPerJob int) *Processor {
	return &Processor{MaxPerJob: maxPerJob, applied: make(map[int]int)}
}

// Reset returns the processor to the state NewProcessor(maxPerJob) builds,
// reusing its per-job budget table.
func (p *Processor) Reset(maxPerJob int) {
	clear(p.applied)
	p.MaxPerJob, p.Stats = maxPerJob, Stats{}
}

// Snapshot is the processor's restorable state: the aggregate statistics
// and the per-job applied-command counts the MaxPerJob budget is enforced
// against.
type Snapshot struct {
	MaxPerJob int         `json:"max_per_job,omitempty"`
	Stats     Stats       `json:"stats"`
	Applied   map[int]int `json:"applied,omitempty"`
}

// Snapshot captures the processor state for NewProcessorFromSnapshot.
func (p *Processor) Snapshot() Snapshot {
	s := Snapshot{MaxPerJob: p.MaxPerJob, Stats: p.Stats}
	if len(p.applied) > 0 {
		s.Applied = make(map[int]int, len(p.applied))
		for id, n := range p.applied {
			s.Applied[id] = n
		}
	}
	return s
}

// NewProcessorFromSnapshot reconstructs a processor mid-run.
func NewProcessorFromSnapshot(s Snapshot) *Processor {
	p := NewProcessor(s.MaxPerJob)
	p.Stats = s.Stats
	for id, n := range s.Applied {
		p.applied[id] = n
	}
	return p
}

// Apply executes one command against the target and returns what happened.
func (p *Processor) Apply(c cwf.Command, t Target) Outcome {
	p.Stats.Total++
	out := p.apply(c, t)
	switch out {
	case Applied:
		p.Stats.Applied++
		p.applied[c.JobID]++
	case Clamped:
		p.Stats.Applied++
		p.Stats.Clamped++
		p.applied[c.JobID]++
	case IgnoredFinished:
		p.Stats.IgnoredFinished++
	case IgnoredUnknown:
		p.Stats.IgnoredUnknown++
	case IgnoredLimit:
		p.Stats.IgnoredLimit++
	case IgnoredCapacity:
		p.Stats.IgnoredCapacity++
	}
	return out
}

func (p *Processor) apply(c cwf.Command, t Target) Outcome {
	if c.Amount <= 0 || !c.Type.IsECC() {
		return IgnoredUnknown
	}
	if p.MaxPerJob > 0 && p.applied[c.JobID] >= p.MaxPerJob {
		return IgnoredLimit
	}
	if j := t.FindWaiting(c.JobID); j != nil {
		return p.applyWaiting(c, j, t)
	}
	if j := t.FindRunning(c.JobID); j != nil {
		return p.applyRunning(c, j, t)
	}
	return IgnoredFinished
}

// applyWaiting mutates a still-queued job's requirements directly.
func (p *Processor) applyWaiting(c cwf.Command, j *job.Job, t Target) Outcome {
	switch c.Type {
	case cwf.ExtendTime:
		j.Dur += c.Amount
		p.Stats.ExtendedSeconds += c.Amount
		t.TouchWaiting(j)
		return Applied
	case cwf.ReduceTime:
		out := Applied
		nd := j.Dur - c.Amount
		if nd < 1 {
			nd = 1
			out = Clamped
		}
		p.Stats.ReducedSeconds += j.Dur - nd
		j.Dur = nd
		t.TouchWaiting(j)
		return out
	case cwf.ExtendProc:
		return p.resizeWaiting(j, j.Size+int(c.Amount), t)
	case cwf.ReduceProc:
		return p.resizeWaiting(j, j.Size-int(c.Amount), t)
	default:
		return IgnoredUnknown
	}
}

func (p *Processor) resizeWaiting(j *job.Job, want int, t Target) Outcome {
	unit := t.MachineUnit()
	out := Applied
	size := ((want + unit - 1) / unit) * unit
	if size < unit {
		size = unit
		out = Clamped
	}
	if size > t.MachineTotal() {
		size = t.MachineTotal()
		out = Clamped
	}
	if j.Malleable() {
		// A bounded job's size never leaves its malleable window, queued or
		// running: the scheduler's resize planning relies on the bounds.
		if size < j.MinProcs {
			size = j.MinProcs
			out = Clamped
		}
		if size > j.MaxProcs {
			size = j.MaxProcs
			out = Clamped
		}
	}
	if size > j.Size {
		p.Stats.GrownProcs += size - j.Size
	} else {
		p.Stats.ShrunkProcs += j.Size - size
	}
	j.Size = size
	t.TouchWaiting(j)
	return out
}

// applyRunning mutates a running job's kill-by time or allocation.
func (p *Processor) applyRunning(c cwf.Command, j *job.Job, t Target) Outcome {
	switch c.Type {
	case cwf.ExtendTime:
		oldEnd := j.EndTime
		j.EndTime += c.Amount
		j.Dur = j.EndTime - j.StartTime
		p.Stats.ExtendedSeconds += c.Amount
		t.RetimeRunning(j, oldEnd)
		return Applied
	case cwf.ReduceTime:
		out := Applied
		oldEnd := j.EndTime
		newEnd := j.EndTime - c.Amount
		floor := t.Now()
		if s := j.StartTime + 1; s > floor {
			floor = s
		}
		if newEnd < floor {
			newEnd = floor
			out = Clamped
		}
		p.Stats.ReducedSeconds += j.EndTime - newEnd
		j.EndTime = newEnd
		j.Dur = j.EndTime - j.StartTime
		t.RetimeRunning(j, oldEnd)
		return out
	case cwf.ExtendProc:
		unit := t.MachineUnit()
		want := ((j.Size + int(c.Amount) + unit - 1) / unit) * unit
		if want > t.MachineTotal() {
			want = t.MachineTotal()
		}
		if j.Malleable() && want > j.MaxProcs {
			want = j.MaxProcs
		}
		if want == j.Size {
			return Clamped
		}
		grow := want - j.Size
		if err := t.ResizeRunning(j, want); err != nil {
			return IgnoredCapacity
		}
		p.Stats.GrownProcs += grow
		return Applied
	case cwf.ReduceProc:
		unit := t.MachineUnit()
		want := ((j.Size - int(c.Amount) + unit - 1) / unit) * unit
		out := Applied
		if want < unit {
			want = unit
			out = Clamped
		}
		if j.Malleable() && want < j.MinProcs {
			want = j.MinProcs
			out = Clamped
		}
		if want >= j.Size {
			return Clamped
		}
		shrink := j.Size - want
		if err := t.ResizeRunning(j, want); err != nil {
			return IgnoredCapacity
		}
		p.Stats.ShrunkProcs += shrink
		return out
	default:
		return IgnoredUnknown
	}
}
