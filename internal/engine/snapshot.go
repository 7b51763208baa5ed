package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"

	"elastisched/internal/cwf"
	"elastisched/internal/ecc"
	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/machine"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
	"elastisched/internal/simkit"
)

// SnapshotVersion stamps the snapshot encoding. Decoders reject snapshots
// from a different version rather than guessing at field semantics.
// Version 2 added fault injection: fail/repair event kinds, the machine's
// group-health table, and the captured retry policy.
// Version 3 added malleability: the Malleable/ResizeOverhead feature
// flags, per-job processor bounds (inside Jobs), and the resize counters
// (inside Metrics).
// Version 4 added checkpointing: the ckpt event kind, the captured
// checkpoint policy knobs, per-job checkpoint progress (inside Jobs),
// and the checkpoint counters (inside Metrics).
const SnapshotVersion = 4

// Event kinds in a snapshot.
const (
	evArrive   = "arrive"   // a job's arrival is still pending
	evComplete = "complete" // a running job's completion
	evCommand  = "command"  // an Elastic Control Command issue
	evWake     = "wake"     // a bare scheduler wake (dedicated start time)
	evFail     = "fail"     // a pending node-group failure
	evRepair   = "repair"   // a pending node-group repair
	evCkpt     = "ckpt"     // a running job's next scheduled checkpoint
)

// EventSnap is one pending kernel event. Order within Snapshot.Events is
// dispatch order: restore re-schedules them in sequence, which reproduces
// the kernel's (time, seq) total order exactly.
type EventSnap struct {
	Kind string `json:"kind"`
	Time int64  `json:"time"`
	// Job indexes Snapshot.Jobs for arrive/complete events; -1 otherwise.
	Job int `json:"job"`
	// Cmd is the pending command for command events.
	Cmd *cwf.Command `json:"cmd,omitempty"`
	// Groups names the node groups of fail/repair events.
	Groups []int `json:"groups,omitempty"`
}

// Snapshot is the complete, self-contained state of a Session at an
// instant boundary. It is plain data: JSON-encodable via Encode /
// DecodeSnapshot, inspectable, and restorable into a fresh Session built
// with an equivalent Config (Snapshot.Config rebuilds one: same geometry
// and feature flags; the scheduler may differ, enabling policy-swap
// resume — captured policy state then does not carry over).
type Snapshot struct {
	Version   int    `json:"version"`
	Scheduler string `json:"scheduler"`

	// Settings are the Config fields the restoring Config must match,
	// encoded inline.
	Settings

	Now        int64  `json:"now"`
	Dispatched uint64 `json:"dispatched"`
	Cycles     uint64 `json:"cycles"`

	DroppedECC  int `json:"dropped_ecc,omitempty"`
	FragRejects int `json:"frag_rejects,omitempty"`
	PeakWaste   int `json:"peak_waste,omitempty"`

	// Jobs holds every job the session owns, in admission order, with all
	// mutable fields (state, skip counts, ECC-adjusted requirements) as of
	// the capture instant. Queue membership and events reference jobs by
	// index into this slice.
	Jobs []job.Job `json:"jobs"`
	// Batch/Dedicated/Active list queue membership as Jobs indices in exact
	// queue order.
	Batch     []int `json:"batch,omitempty"`
	Dedicated []int `json:"dedicated,omitempty"`
	Active    []int `json:"active,omitempty"`

	Events []EventSnap `json:"events,omitempty"`

	Machine machine.Snapshot `json:"machine"`
	Metrics metrics.Snapshot `json:"metrics"`
	ECC     *ecc.Snapshot    `json:"ecc,omitempty"`

	// SchedState is the policy's opaque sched.Snapshotter encoding; empty
	// for stateless policies.
	SchedState []byte `json:"sched_state,omitempty"`
}

// Settings is the part of a Config a snapshot pins: machine geometry,
// feature flags and fault knobs. settingsOf is its one encoder and
// Snapshot.Config its one decoder; Restore refuses a session whose
// Config encodes differently.
type Settings struct {
	// Machine geometry and feature flags.
	M            int  `json:"m"`
	Unit         int  `json:"unit"`
	Contiguous   bool `json:"contiguous,omitempty"`
	Migrate      bool `json:"migrate,omitempty"`
	ProcessECC   bool `json:"process_ecc,omitempty"`
	MaxECCPerJob int  `json:"max_ecc_per_job,omitempty"`
	// Retry is the fault retry policy of a fault-injected session; nil when
	// fault injection is off. The restoring Config must match: pending
	// fail/repair events and the machine's health table are meaningless
	// without the fault subsystem, and future kills must follow the same
	// policy.
	Retry *fault.RetryPolicy `json:"retry,omitempty"`
	// Checkpoint knobs of a fault-injected session (meaningful only when
	// Retry is set). The restoring Config must match: pending ckpt events
	// and per-job checkpoint progress are tied to the policy, interval and
	// cost in force when they were captured. A daly policy is captured
	// verbatim with its resolved base interval sqrt(2·MTBF·C) — in-flight
	// chains resume from the snapshotted events at their pinned fire
	// times, and jobs dispatched after the restore re-derive their
	// per-span intervals from the restoring config's MTBF, which the
	// interval match holds consistent with the captured one.
	Checkpoint         string `json:"checkpoint,omitempty"`
	CheckpointInterval int64  `json:"checkpoint_interval,omitempty"`
	CheckpointCost     int64  `json:"checkpoint_cost,omitempty"`
	// CheckpointMTBF is the per-group MTBF a daly session derives its
	// per-job intervals from, captured so a session rebuilt from the
	// snapshot alone (whose pinned fault events preclude sampling
	// parameters on the config) can keep deriving them. Zero for every
	// other policy.
	CheckpointMTBF float64 `json:"checkpoint_mtbf,omitempty"`
	// Malleable and ResizeOverhead are the runtime-elasticity flags; the
	// restoring Config must match, or resumed resizes would change
	// semantics mid-run.
	Malleable      bool  `json:"malleable,omitempty"`
	ResizeOverhead int64 `json:"resize_overhead,omitempty"`
}

// ErrSnapshotMismatch rejects restoring a snapshot into a session whose
// Config encodes to different Settings.
var ErrSnapshotMismatch = errors.New("engine: snapshot settings differ from config")

// settingsOf encodes a Config's settings. Checkpoint policy none is the
// zero value and stays off the wire; any other policy is captured with
// its resolved base interval (the configured one for periodic, the
// derived sqrt(2·MTBF·C) for daly, 0 for on-resize), and daly with the
// MTBF it derives per-job intervals from. Pinning daly's base interval
// makes a restoring config whose MTBF or cost would re-derive different
// per-job intervals encode differently.
func settingsOf(cfg Config) Settings {
	st := Settings{
		M:              cfg.M,
		Unit:           cfg.Unit,
		Contiguous:     cfg.Contiguous,
		Migrate:        cfg.Migrate,
		ProcessECC:     cfg.ProcessECC,
		MaxECCPerJob:   cfg.MaxECCPerJob,
		Malleable:      cfg.Malleable,
		ResizeOverhead: cfg.ResizeOverhead,
	}
	if fc := cfg.Faults; fc != nil {
		retry := fc.Retry
		st.Retry = &retry
		if fc.Checkpoint != fault.CheckpointNone {
			st.Checkpoint = fc.Checkpoint.String()
			st.CheckpointInterval = fc.ResolvedCheckpointInterval()
			st.CheckpointCost = fc.CheckpointCost
			if fc.Checkpoint == fault.CheckpointDaly {
				st.CheckpointMTBF = fc.MTBF
			}
		}
	}
	return st
}

// Encode writes the snapshot as JSON.
func (sn *Snapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(sn)
}

// DecodeSnapshot reads a snapshot previously written by Encode.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	if err := json.NewDecoder(r).Decode(&sn); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %v", err)
	}
	if sn.Version != SnapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d, want %d", sn.Version, SnapshotVersion)
	}
	return &sn, nil
}

// Snapshot captures the session's complete state. It may be called at any
// instant boundary — which is every point a caller can observe, since
// Step, RunUntil and Run all return between instants. The session is not
// perturbed and continues running; the snapshot shares nothing with it.
func (s *Session) Snapshot() (*Snapshot, error) {
	if s.failed != nil {
		return nil, s.failed
	}
	sn := &Snapshot{
		Version:     SnapshotVersion,
		Scheduler:   s.cfg.Scheduler.Name(),
		Settings:    settingsOf(s.cfg),
		Now:         s.eng.Now(),
		Dispatched:  s.eng.Dispatched(),
		Cycles:      s.cycles,
		DroppedECC:  s.dropped,
		FragRejects: s.fragRejects,
		PeakWaste:   s.peakWaste,
		Machine:     s.mach.Snapshot(),
		Metrics:     s.collector.Snapshot(),
	}
	index := make(map[*job.Job]int, len(s.jobs))
	sn.Jobs = make([]job.Job, len(s.jobs))
	for i, j := range s.jobs {
		index[j] = i
		sn.Jobs[i] = *j
	}
	idxOf := func(list []*job.Job) ([]int, error) {
		if len(list) == 0 {
			return nil, nil
		}
		out := make([]int, len(list))
		for i, j := range list {
			idx, ok := index[j]
			if !ok {
				return nil, fmt.Errorf("engine: snapshot found queued job %d the session does not own", j.ID)
			}
			out[i] = idx
		}
		return out, nil
	}
	var err error
	if sn.Batch, err = idxOf(s.batch.Jobs()); err != nil {
		return nil, err
	}
	if sn.Dedicated, err = idxOf(s.ded.Jobs()); err != nil {
		return nil, err
	}
	if sn.Active, err = idxOf(s.active.Jobs()); err != nil {
		return nil, err
	}

	for _, pe := range s.eng.PendingInOrder() {
		ev, err := s.snapEvent(pe, index)
		if err != nil {
			return nil, err
		}
		sn.Events = append(sn.Events, ev)
	}

	if s.proc != nil {
		p := s.proc.Snapshot()
		sn.ECC = &p
	}
	if sshot, ok := s.cfg.Scheduler.(sched.Snapshotter); ok {
		b, err := sshot.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("engine: capturing %s state: %v", s.cfg.Scheduler.Name(), err)
		}
		sn.SchedState = b
	}
	return sn, nil
}

// snapEvent encodes one pending kernel event. A static event (Load's
// arrivals and commands, the fault trace) stands for the element of the
// slice it indexes and encodes exactly as the heap event carrying that
// element as its argument would; index maps each owned job to its
// position in Snapshot.Jobs.
func (s *Session) snapEvent(pe simkit.PendingEvent, index map[*job.Job]int) (EventSnap, error) {
	ev := EventSnap{Time: pe.Time, Job: -1}
	arg := pe.Arg
	switch pe.Kind {
	case 0: // a heap event
	case arriveK:
		arg = &s.clones[pe.Index]
	case commandK:
		arg = &s.cmds[pe.Index]
	case faultK:
		arg = &s.ftrace.Events[pe.Index]
	default:
		return ev, fmt.Errorf("engine: snapshot found pending static event of unknown kind %d", pe.Kind)
	}
	switch arg := arg.(type) {
	case nil:
		ev.Kind = evWake
	case *cwf.Command:
		ev.Kind = evCommand
		c := *arg
		ev.Cmd = &c
	case *fault.Event:
		if arg.Kind == fault.Fail {
			ev.Kind = evFail
		} else {
			ev.Kind = evRepair
		}
		ev.Groups = append([]int(nil), arg.Groups...)
	case *job.Job:
		idx, ok := index[arg]
		if !ok {
			return ev, fmt.Errorf("engine: snapshot found pending event for job %d the session does not own", arg.ID)
		}
		ev.Job = idx
		// A job pointer argument is the job's arrival, its completion, or
		// its next checkpoint; the completion is the one whose handle the
		// completion table holds, the checkpoint the one in the checkpoint
		// table (a heap event's handle is never the zero Handle those
		// tables return for absent IDs). Static job events are Load
		// arrivals and carry no handle.
		ckpt, _ := s.ckpt.Get(arg.ID)
		switch {
		case pe.Kind != 0:
			ev.Kind = evArrive
		case pe.Handle == s.getCompletion(arg.ID):
			ev.Kind = evComplete
		case pe.Handle == ckpt:
			ev.Kind = evCkpt
		default:
			ev.Kind = evArrive
		}
	default:
		return ev, fmt.Errorf("engine: snapshot found pending event with unknown argument %T", pe.Arg)
	}
	return ev, nil
}

// Config inverts settingsOf: it returns the engine
// configuration the snapshot restores into — geometry, feature flags and
// fault knobs. Scheduler, Paranoid and Observer are not part of a snapshot;
// the caller sets them before New.
//
// A fault-injected session's pending failure and repair events live in the
// snapshot itself (a restored session never samples a trace), so the
// rebuilt fault config carries only the retry policy and checkpoint knobs,
// with an empty scripted trace as the placeholder. Daly is the exception:
// its per-job intervals derive from the captured MTBF, which the config can
// only carry as a sampling parameter in place of the trace.
func (sn *Snapshot) Config() (Config, error) {
	cfg := Config{
		M:              sn.M,
		Unit:           sn.Unit,
		ProcessECC:     sn.ProcessECC,
		MaxECCPerJob:   sn.MaxECCPerJob,
		Contiguous:     sn.Contiguous,
		Migrate:        sn.Migrate,
		Malleable:      sn.Malleable,
		ResizeOverhead: sn.ResizeOverhead,
	}
	if sn.Retry == nil {
		return cfg, nil
	}
	ckpt, err := fault.ParseCheckpointPolicy(sn.Checkpoint)
	if err != nil {
		return Config{}, err
	}
	cfg.Faults = &FaultConfig{
		Trace:          &fault.Trace{},
		Retry:          *sn.Retry,
		Checkpoint:     ckpt,
		CheckpointCost: sn.CheckpointCost,
	}
	switch ckpt {
	case fault.CheckpointPeriodic:
		cfg.Faults.CheckpointInterval = sn.CheckpointInterval
	case fault.CheckpointDaly:
		cfg.Faults.Trace = nil
		cfg.Faults.MTBF = sn.CheckpointMTBF
	}
	return cfg, nil
}

// Restore reinstates a captured snapshot into this session, which must be
// fresh (no Load, no injections, no steps). The session's Config must
// encode to the snapshot's Settings, or Restore fails with
// ErrSnapshotMismatch. The configured
// scheduler need not be the captured one — restoring under a different
// policy is the supported policy-swap resume — but when it is the same
// policy and the snapshot carries policy state, that state is reinstated
// (and the policy must support it).
//
// After Restore the session continues exactly where the captured one
// stood: running it to completion yields a Result identical to the
// uninterrupted run's.
func (s *Session) Restore(sn *Snapshot) error {
	if !s.pristine() {
		return fmt.Errorf("engine: Restore on a session that already has work")
	}
	if sn.Version != SnapshotVersion {
		return fmt.Errorf("engine: snapshot version %d, want %d", sn.Version, SnapshotVersion)
	}
	if want := settingsOf(s.cfg); !reflect.DeepEqual(sn.Settings, want) {
		// Settings hold only plain values, which always marshal.
		got, _ := json.Marshal(sn.Settings)
		cfg, _ := json.Marshal(want)
		return fmt.Errorf("%w: snapshot %s, config %s", ErrSnapshotMismatch, got, cfg)
	}
	if sn.Metrics.M != s.cfg.M {
		return fmt.Errorf("engine: snapshot metrics for machine %d, config %d", sn.Metrics.M, s.cfg.M)
	}

	// Jobs: one backing slice, pointers into it everywhere (queues, events,
	// machine ownership is by ID).
	clones := make([]job.Job, len(sn.Jobs))
	copy(clones, sn.Jobs)
	jobs := make([]*job.Job, len(clones))
	hetero := false
	for i := range clones {
		jobs[i] = &clones[i]
		if clones[i].Class == job.Dedicated && clones[i].State != job.Finished {
			hetero = true
		}
		// Snapshot files come from outside the program, and nothing past
		// admission re-quantizes bounds.
		if err := checkBounds(jobs[i], s.mach.Unit()); err != nil {
			return fmt.Errorf("engine: restoring snapshot: %w", err)
		}
	}
	if hetero && !s.cfg.Scheduler.Heterogeneous() {
		return fmt.Errorf("engine: snapshot has live dedicated jobs but %s is batch-only", s.cfg.Scheduler.Name())
	}

	jobAt := func(idx int, where string) (*job.Job, error) {
		if idx < 0 || idx >= len(jobs) {
			return nil, fmt.Errorf("engine: snapshot %s references job index %d of %d", where, idx, len(jobs))
		}
		return jobs[idx], nil
	}

	mach, err := machine.FromSnapshot(sn.Machine)
	if err != nil {
		return fmt.Errorf("engine: restoring machine: %v", err)
	}
	if mach.Total() != s.cfg.M || mach.Unit() != s.cfg.Unit {
		return fmt.Errorf("engine: snapshot machine state is %d/%d, config %d/%d", mach.Total(), mach.Unit(), s.cfg.M, s.cfg.Unit)
	}
	collector, err := metrics.NewCollectorFromSnapshot(sn.Metrics)
	if err != nil {
		return fmt.Errorf("engine: restoring metrics: %w", err)
	}

	// All validation that can fail is done; commit to the session.
	s.jobs = jobs
	s.mach = mach
	s.ctx.Machine = mach
	s.collector = collector
	if s.cfg.ProcessECC {
		if sn.ECC != nil {
			s.proc = ecc.NewProcessorFromSnapshot(*sn.ECC)
		} else {
			s.proc = ecc.NewProcessor(s.cfg.MaxECCPerJob)
		}
	}
	s.dropped = sn.DroppedECC
	s.cycles = sn.Cycles
	s.fragRejects = sn.FragRejects
	s.peakWaste = sn.PeakWaste

	for _, idx := range sn.Batch {
		j, err := jobAt(idx, "batch queue")
		if err != nil {
			return err
		}
		s.batch.Push(j) // plain tail append: reproduces captured order, rigid prefix included
	}
	for _, idx := range sn.Dedicated {
		j, err := jobAt(idx, "dedicated queue")
		if err != nil {
			return err
		}
		s.ded.Push(j)
	}
	for _, idx := range sn.Active {
		j, err := jobAt(idx, "active list")
		if err != nil {
			return err
		}
		s.active.Insert(j)
	}

	// Re-schedule pending events in captured dispatch order: the kernel
	// assigns sequence numbers monotonically, so this order IS the restored
	// dispatch order.
	for _, ev := range sn.Events {
		if ev.Time < sn.Now {
			return fmt.Errorf("engine: snapshot event at t=%d before snapshot time %d", ev.Time, sn.Now)
		}
		switch ev.Kind {
		case evArrive:
			j, err := jobAt(ev.Job, "arrival event")
			if err != nil {
				return err
			}
			s.eng.AtArg(ev.Time, s.arriveH, j)
		case evComplete:
			j, err := jobAt(ev.Job, "completion event")
			if err != nil {
				return err
			}
			if j.State != job.Running {
				return fmt.Errorf("engine: snapshot completion for job %d in state %v", j.ID, j.State)
			}
			s.completion.Put(j.ID, s.eng.AtArg(ev.Time, s.completeH, j))
		case evCkpt:
			j, err := jobAt(ev.Job, "checkpoint event")
			if err != nil {
				return err
			}
			if j.State != job.Running {
				return fmt.Errorf("engine: snapshot checkpoint for job %d in state %v", j.ID, j.State)
			}
			if s.ckptEvery == 0 {
				return fmt.Errorf("engine: snapshot checkpoint event at t=%d but the config schedules no checkpoints", ev.Time)
			}
			if _, dup := s.ckpt.Get(j.ID); dup {
				return fmt.Errorf("engine: snapshot has two pending checkpoints for job %d", j.ID)
			}
			s.ckpt.Put(j.ID, s.eng.AtArg(ev.Time, s.ckptH, j))
		case evCommand:
			if ev.Cmd == nil {
				return fmt.Errorf("engine: snapshot command event at t=%d without a command", ev.Time)
			}
			cp := new(cwf.Command)
			*cp = *ev.Cmd
			s.eng.AtArg(ev.Time, s.commandH, cp)
		case evWake:
			s.eng.AtArg(ev.Time, noopWake, nil)
		case evFail, evRepair:
			if sn.Retry == nil {
				return fmt.Errorf("engine: snapshot %s event at t=%d without fault injection", ev.Kind, ev.Time)
			}
			kind := fault.Fail
			if ev.Kind == evRepair {
				kind = fault.Repair
			}
			fe := &fault.Event{Time: ev.Time, Kind: kind, Groups: append([]int(nil), ev.Groups...)}
			if len(fe.Groups) == 0 {
				return fmt.Errorf("engine: snapshot %s event at t=%d names no groups", ev.Kind, ev.Time)
			}
			for _, g := range fe.Groups {
				if g < 0 || g >= s.mach.NumGroups() {
					return fmt.Errorf("engine: snapshot %s event at t=%d group %d out of range", ev.Kind, ev.Time, g)
				}
			}
			s.eng.AtArg(ev.Time, s.faultH, fe)
		default:
			return fmt.Errorf("engine: snapshot event kind %q unknown", ev.Kind)
		}
	}
	s.eng.RestoreClock(sn.Now, sn.Dispatched)

	if len(sn.SchedState) > 0 && sn.Scheduler == s.cfg.Scheduler.Name() {
		sshot, ok := s.cfg.Scheduler.(sched.Snapshotter)
		if !ok {
			return fmt.Errorf("engine: snapshot carries %s state but the configured policy cannot restore it", sn.Scheduler)
		}
		if err := sshot.RestoreState(sn.SchedState); err != nil {
			return fmt.Errorf("engine: restoring %s state: %v", sn.Scheduler, err)
		}
	}
	if s.st != nil {
		// Arm delta delivery and invalidate any caches: the restore-rebuild
		// rule — delta-maintained state is never carried across sessions, it
		// is rebuilt from the restored queues and active list on the first
		// cycle.
		s.st.ResetDeltas()
	}
	s.loaded = true
	return nil
}
