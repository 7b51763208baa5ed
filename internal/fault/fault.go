// Package fault is the deterministic failure model of the simulator:
// node-group failure/repair events, replayable fault traces (sampled from
// per-group exponential MTBF/MTTR or loaded from a scripted file), and the
// retry policy applied to jobs killed by a failure.
//
// The machine allocates processors in node-group quanta (32 processors on
// the paper's BlueGene/P rack), and that is also the failure domain: a
// failure takes whole node groups Down, killing every job holding one of
// them; a repair returns Down groups to service. Traces are pure data —
// the engine owns applying them — so the same trace can drive a run, be
// audited against the resulting schedule, and be replayed byte-identically.
package fault

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"elastisched/internal/dist"
)

// Kind distinguishes failure events from repair events.
type Kind uint8

const (
	// Fail takes the event's node groups Down at the event time.
	Fail Kind = iota
	// Repair returns the event's node groups to service.
	Repair
)

// String returns the trace-file keyword for the kind.
func (k Kind) String() string {
	if k == Fail {
		return "fail"
	}
	return "repair"
}

// Event is one failure or repair of a set of node groups at an instant.
type Event struct {
	Time   int64
	Kind   Kind
	Groups []int
}

// Trace is a time-sorted, replayable fault scenario.
type Trace struct {
	Events []Event
}

// Validation and configuration errors. Engine config validation wraps
// these so callers can test with errors.Is.
var (
	ErrNonPositiveMTBF   = errors.New("fault: MTBF must be positive")
	ErrNegativeMTTR      = errors.New("fault: MTTR must not be negative")
	ErrNegativeRetries   = errors.New("fault: retry limit must not be negative")
	ErrNegativeBackoff   = errors.New("fault: retry backoff must not be negative")
	ErrUnknownRetryMode  = errors.New("fault: unknown retry mode")
	ErrUnknownRestart    = errors.New("fault: unknown restart mode")
	ErrMalformedTrace    = errors.New("fault: malformed trace")
	ErrGroupOutOfRange   = errors.New("fault: group index out of range")
	ErrNonPositiveGroups = errors.New("fault: group count must be positive")
	ErrNonPositiveSpan   = errors.New("fault: horizon must be positive")

	ErrUnknownCheckpointPolicy = errors.New("fault: unknown checkpoint policy")
	ErrNegativeCheckpointCost  = errors.New("fault: checkpoint cost must not be negative")
	ErrNonPositiveInterval     = errors.New("fault: periodic checkpoint interval must be positive")
	ErrIntervalWithoutPeriodic = errors.New("fault: checkpoint interval set without a periodic policy")
	ErrDalyNeedsCost           = errors.New("fault: daly checkpointing needs a positive checkpoint cost")
	ErrDalyNeedsMTBF           = errors.New("fault: daly checkpointing needs a sampling MTBF (scripted traces carry no rate)")
)

// Mode selects what happens to a batch job killed by a failure.
type Mode uint8

const (
	// Requeue resubmits the killed job at the head of the batch queue
	// (after the backoff delay), subject to the retry limit.
	Requeue Mode = iota
	// Drop removes the killed job from the system permanently.
	Drop
)

// Restart selects how much runtime a requeued job carries back.
type Restart uint8

const (
	// FullRuntime restarts the job from scratch: no work survives the
	// kill, the resubmitted job runs its original runtime again.
	FullRuntime Restart = iota
	// RemainingRuntime models checkpointed jobs: the resubmitted job
	// needs only the work it had not yet completed when killed.
	RemainingRuntime
)

// RetryPolicy configures the dispatch of batch jobs killed by a failure.
// Dedicated jobs are never retried: their rigid start time has passed by
// the time they run, so a killed dedicated job is dropped and counted.
// The zero value requeues immediately with full restart and no retry cap.
type RetryPolicy struct {
	// Mode is Requeue or Drop.
	Mode Mode
	// Restart is FullRuntime or RemainingRuntime (Requeue mode only).
	Restart Restart
	// MaxRetries bounds requeues per job; 0 means unlimited. A job
	// killed after exhausting its retries is dropped.
	MaxRetries int
	// Backoff delays the resubmission of a killed job (sim seconds).
	Backoff int64
}

// Validate checks the policy bounds, wrapping the typed errors above.
func (p RetryPolicy) Validate() error {
	if p.Mode > Drop {
		return fmt.Errorf("%w: %d", ErrUnknownRetryMode, p.Mode)
	}
	if p.Restart > RemainingRuntime {
		return fmt.Errorf("%w: %d", ErrUnknownRestart, p.Restart)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeRetries, p.MaxRetries)
	}
	if p.Backoff < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeBackoff, p.Backoff)
	}
	return nil
}

// CheckpointPolicy selects when running batch jobs checkpoint their
// progress. A checkpoint costs CheckpointCost sim seconds of the job's
// own occupancy (the job runs that much longer) and moves the job's
// restart point forward: a later kill loses only the work done since the
// last checkpoint plus one restart charge, instead of the FullRuntime /
// RemainingRuntime binary of RetryPolicy.Restart.
type CheckpointPolicy uint8

const (
	// CheckpointNone is the exact pre-checkpoint behaviour: kills fall
	// back to RetryPolicy.Restart and no cost is ever charged.
	CheckpointNone CheckpointPolicy = iota
	// CheckpointPeriodic checkpoints every CheckpointInterval seconds of
	// a job's run (the interval restarts after each checkpoint's cost).
	CheckpointPeriodic
	// CheckpointOnResize piggybacks a checkpoint on every applied resize:
	// reconfiguration already redistributes the job's data, so saving
	// state there is nearly free — only CheckpointCost extra is charged.
	// Requires the malleable pipeline.
	CheckpointOnResize
	// CheckpointDaly checkpoints periodically at Daly's optimum
	// I = sqrt(2*MTBF*C), derived from the configured sampling MTBF and
	// checkpoint cost (Daly, FGCS 2006 first-order approximation).
	CheckpointDaly
)

// String returns the flag/file spelling of the policy.
func (p CheckpointPolicy) String() string {
	switch p {
	case CheckpointNone:
		return "none"
	case CheckpointPeriodic:
		return "periodic"
	case CheckpointOnResize:
		return "on-resize"
	case CheckpointDaly:
		return "daly"
	}
	return fmt.Sprintf("checkpoint(%d)", uint8(p))
}

// ParseCheckpointPolicy resolves a flag spelling, wrapping
// ErrUnknownCheckpointPolicy.
func ParseCheckpointPolicy(s string) (CheckpointPolicy, error) {
	switch s {
	case "", "none":
		return CheckpointNone, nil
	case "periodic":
		return CheckpointPeriodic, nil
	case "on-resize":
		return CheckpointOnResize, nil
	case "daly":
		return CheckpointDaly, nil
	}
	return 0, fmt.Errorf("%w: %q (want none, periodic, on-resize or daly)", ErrUnknownCheckpointPolicy, s)
}

// DalyInterval is Daly's first-order optimal checkpoint interval
// sqrt(2*MTBF*C) for checkpoint cost C, floored to whole sim seconds and
// at least 1.
func DalyInterval(mtbf float64, cost int64) int64 {
	i := int64(math.Sqrt(2 * mtbf * float64(cost)))
	if i < 1 {
		return 1
	}
	return i
}

// ValidateCheckpoint checks one checkpoint configuration up front,
// wrapping the typed errors above. mtbf is the sampling failure rate the
// policy will run under (0 for scripted traces or no faults): the daly
// policy derives its interval from it and needs it positive.
func ValidateCheckpoint(policy CheckpointPolicy, interval, cost int64, mtbf float64) error {
	if policy > CheckpointDaly {
		return fmt.Errorf("%w: %d", ErrUnknownCheckpointPolicy, policy)
	}
	if cost < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeCheckpointCost, cost)
	}
	if policy == CheckpointPeriodic {
		if interval <= 0 {
			return fmt.Errorf("%w: %d", ErrNonPositiveInterval, interval)
		}
	} else if interval != 0 {
		return fmt.Errorf("%w: interval %d with policy %s", ErrIntervalWithoutPeriodic, interval, policy)
	}
	if policy == CheckpointDaly {
		if cost <= 0 {
			return fmt.Errorf("%w: cost %d", ErrDalyNeedsCost, cost)
		}
		if math.IsNaN(mtbf) || mtbf <= 0 {
			return fmt.Errorf("%w: MTBF %g", ErrDalyNeedsMTBF, mtbf)
		}
	}
	return nil
}

// GenParams parameterizes sampled fault traces. Each of the machine's
// node groups fails and recovers independently: an alternating renewal
// process with exponential time-to-failure (mean MTBF) and exponential
// time-to-repair (mean MTTR), all driven by one seeded stream so a trace
// is a pure function of its parameters.
type GenParams struct {
	// Groups is the number of node groups (machine size / group size).
	Groups int
	// MTBF is the per-group mean time between failures, sim seconds.
	MTBF float64
	// MTTR is the per-group mean time to repair, sim seconds.
	MTTR float64
	// Horizon bounds failure sampling: failures land in [0, Horizon).
	// The closing repair of a failure is always emitted, even past the
	// horizon, so every sampled outage ends and a drained simulation
	// always gets its full capacity back.
	Horizon int64
	// Seed selects the random stream.
	Seed int64
}

// Generate samples a fault trace from the renewal model above.
func Generate(p GenParams) (*Trace, error) {
	if p.Groups <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrNonPositiveGroups, p.Groups)
	}
	if math.IsNaN(p.MTBF) || p.MTBF <= 0 {
		return nil, fmt.Errorf("%w: %g", ErrNonPositiveMTBF, p.MTBF)
	}
	if math.IsNaN(p.MTTR) || p.MTTR < 0 {
		return nil, fmt.Errorf("%w: %g", ErrNegativeMTTR, p.MTTR)
	}
	if p.Horizon <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrNonPositiveSpan, p.Horizon)
	}
	r := rand.New(rand.NewSource(p.Seed))
	ttf := dist.Exponential{Mean: p.MTBF}
	ttr := dist.Exponential{Mean: p.MTTR}
	// Sample each group's alternating fail and repair instants as one
	// strictly increasing run of times, the groups' runs back to back.
	// Every run holds whole outages, so it starts at an even position and
	// an event's kind is the parity of its position.
	var times []int64
	runs := make([]cursor, 0, p.Groups)
	for g := 0; g < p.Groups; g++ {
		start := len(times)
		now := int64(0)
		for {
			now += atLeast(ttf.Sample(r), 1)
			if now >= p.Horizon {
				break
			}
			up := now + atLeast(ttr.Sample(r), 1)
			times = append(times, now, up)
			now = up
		}
		if len(times) > start {
			runs = append(runs, cursor{pos: start, end: len(times), group: g})
		}
	}
	t := &Trace{}
	if len(times) == 0 {
		return t, nil
	}
	// Merge the runs in (time, kind, group) order: failures before
	// repairs at one instant. The key is unique, since one group's times
	// strictly increase, so the order is fully determined. Every event's
	// one-element Groups is a capped window of one array.
	m := merger{times: times, runs: runs}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	groups := make([]int, len(times))
	t.Events = make([]Event, len(times))
	for i := range t.Events {
		c := &m.runs[0]
		groups[i] = c.group
		t.Events[i] = Event{Time: times[c.pos], Kind: Kind(c.pos & 1), Groups: groups[i : i+1 : i+1]}
		if c.pos++; c.pos == c.end {
			n := len(m.runs) - 1
			m.runs[0] = m.runs[n]
			m.runs = m.runs[:n]
		}
		m.siftDown(0)
	}
	return t, nil
}

// cursor is one group's run of sampled times in a merge: times[pos:end]
// are still to be emitted.
type cursor struct {
	pos, end, group int
}

// merger is a min-heap of run cursors ordered by the (time, kind, group)
// key of the event each points at.
type merger struct {
	times []int64
	runs  []cursor
}

func (m *merger) less(i, j int) bool {
	a, b := &m.runs[i], &m.runs[j]
	ta, tb := m.times[a.pos], m.times[b.pos]
	if ta != tb {
		return ta < tb
	}
	if ka, kb := a.pos&1, b.pos&1; ka != kb {
		return ka < kb
	}
	return a.group < b.group
}

func (m *merger) siftDown(i int) {
	n := len(m.runs)
	for {
		least := 2*i + 1
		if least >= n {
			return
		}
		if right := least + 1; right < n && m.less(right, least) {
			least = right
		}
		if !m.less(least, i) {
			return
		}
		m.runs[i], m.runs[least] = m.runs[least], m.runs[i]
		i = least
	}
}

func atLeast(v float64, min int64) int64 {
	if n := int64(v); n > min {
		return n
	}
	return min
}

// Validate checks that the trace is well-formed for a machine with the
// given number of node groups: times non-negative and non-decreasing,
// every event carrying at least one in-range group. It does NOT require
// fail/repair pairing — scripted scenarios may leave groups down forever
// or repair healthy groups (a no-op at the machine); Lint flags those.
func (t *Trace) Validate(groups int) error {
	var last int64
	for i, e := range t.Events {
		if e.Time < 0 {
			return fmt.Errorf("%w: event %d at negative time %d", ErrMalformedTrace, i, e.Time)
		}
		if e.Time < last {
			return fmt.Errorf("%w: event %d at t=%d before t=%d", ErrMalformedTrace, i, e.Time, last)
		}
		last = e.Time
		if e.Kind > Repair {
			return fmt.Errorf("%w: event %d has unknown kind %d", ErrMalformedTrace, i, e.Kind)
		}
		if len(e.Groups) == 0 {
			return fmt.Errorf("%w: event %d names no groups", ErrMalformedTrace, i)
		}
		for _, g := range e.Groups {
			if g < 0 || g >= groups {
				return fmt.Errorf("%w: event %d group %d (machine has %d)", ErrGroupOutOfRange, i, g, groups)
			}
		}
	}
	return nil
}

// Lint reports scenario-level inconsistencies a valid trace may still
// contain: a repair of a group that is not down, or a failure of a group
// that is already down. The audit oracle folds these into its report.
func (t *Trace) Lint(groups int) []string {
	down := make([]bool, groups)
	var issues []string
	for _, e := range t.Events {
		for _, g := range e.Groups {
			if g < 0 || g >= groups {
				continue // Validate's territory
			}
			switch e.Kind {
			case Fail:
				if down[g] {
					issues = append(issues, fmt.Sprintf("group %d fails at t=%d while already down", g, e.Time))
				}
				down[g] = true
			case Repair:
				if !down[g] {
					issues = append(issues, fmt.Sprintf("group %d repaired at t=%d with no preceding failure", g, e.Time))
				}
				down[g] = false
			}
		}
	}
	return issues
}

// DownWindows returns, per group, the half-open [fail, repair) intervals
// during which the group is down. A failure never repaired yields a
// window closing at horizon (pass the end of the span under audit).
func (t *Trace) DownWindows(groups int, horizon int64) [][][2]int64 {
	win := make([][][2]int64, groups)
	downAt := make([]int64, groups)
	down := make([]bool, groups)
	for _, e := range t.Events {
		for _, g := range e.Groups {
			if g < 0 || g >= groups {
				continue
			}
			switch e.Kind {
			case Fail:
				if !down[g] {
					down[g], downAt[g] = true, e.Time
				}
			case Repair:
				if down[g] {
					down[g] = false
					if e.Time > downAt[g] {
						win[g] = append(win[g], [2]int64{downAt[g], e.Time})
					}
				}
			}
		}
	}
	for g := range down {
		if down[g] && horizon > downAt[g] {
			win[g] = append(win[g], [2]int64{downAt[g], horizon})
		}
	}
	return win
}

// Parse reads a scripted fault trace. The format is line-oriented:
//
//	# comment
//	<time> fail   <group>[,<group>...]
//	<time> repair <group>[,<group>...]
//
// Times are non-negative integers (sim seconds) and must be
// non-decreasing; blank lines and #-comments are ignored.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		f := strings.Fields(s)
		if len(f) != 3 {
			return nil, fmt.Errorf("%w: line %d: want \"<time> fail|repair <groups>\", got %q", ErrMalformedTrace, line, s)
		}
		tm, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil || tm < 0 {
			return nil, fmt.Errorf("%w: line %d: bad time %q", ErrMalformedTrace, line, f[0])
		}
		var kind Kind
		switch f[1] {
		case "fail":
			kind = Fail
		case "repair":
			kind = Repair
		default:
			return nil, fmt.Errorf("%w: line %d: bad kind %q", ErrMalformedTrace, line, f[1])
		}
		var groups []int
		for _, p := range strings.Split(f[2], ",") {
			g, err := strconv.Atoi(p)
			if err != nil || g < 0 {
				return nil, fmt.Errorf("%w: line %d: bad group %q", ErrMalformedTrace, line, p)
			}
			groups = append(groups, g)
		}
		t.Events = append(t.Events, Event{Time: tm, Kind: kind, Groups: groups})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := 1; i < len(t.Events); i++ {
		if t.Events[i].Time < t.Events[i-1].Time {
			return nil, fmt.Errorf("%w: event at t=%d after t=%d", ErrMalformedTrace, t.Events[i].Time, t.Events[i-1].Time)
		}
	}
	return t, nil
}

// Write emits the trace in the format Parse reads.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events {
		gs := make([]string, len(e.Groups))
		for i, g := range e.Groups {
			gs[i] = strconv.Itoa(g)
		}
		if _, err := fmt.Fprintf(bw, "%d %s %s\n", e.Time, e.Kind, strings.Join(gs, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}
