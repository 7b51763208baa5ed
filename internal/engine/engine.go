// Package engine runs one scheduling simulation: it feeds a CWF workload
// through the event kernel, maintains the paper's queues (W^b, W^d, A) and
// the machine, invokes the scheduling policy at every event instant until a
// fixed point, and applies Elastic Control Commands through the ECC
// processor for -E algorithm variants.
//
// The run lifecycle is a first-class Session: New(cfg) builds an empty
// simulation, Load seeds it with a workload, Step/RunUntil/Run advance it
// one instant, to a deadline, or to completion, Inject/InjectCommand admit
// work online, Snapshot/Restore capture and reinstate the complete
// simulation state, and Result reports the measured outcome. Run (the
// package function) composes them into a one-shot execution; Reset readies
// a used session for the next run, reusing its storage, which is how the
// experiment sweeps run.
//
// This is the role the GridSim + ALEA pair plays in the paper's Java
// framework (Figure 3).
package engine

import (
	"errors"
	"fmt"
	"slices"

	"elastisched/internal/cwf"
	"elastisched/internal/ecc"
	"elastisched/internal/fault"
	"elastisched/internal/idtab"
	"elastisched/internal/job"
	"elastisched/internal/machine"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
	"elastisched/internal/simkit"
)

// Config describes one run.
type Config struct {
	// M is the machine size in processors; Unit the allocation quantum.
	M, Unit int
	// Scheduler is the policy under test. A fresh instance per run: policies
	// carry scratch state and are not safe to share across runs.
	Scheduler sched.Scheduler
	// ProcessECC attaches the ECC processor (the scheduler's -E variant).
	// When false, commands in the workload are dropped and counted.
	ProcessECC bool
	// MaxECCPerJob caps commands per job (0 = unlimited).
	MaxECCPerJob int
	// Paranoid verifies machine invariants at every instant (slow; tests).
	Paranoid bool
	// Observer, when non-nil, receives placement events (dispatches,
	// completions, resizes) — e.g. a trace.Recorder for Gantt rendering.
	// Observers are not part of snapshots: a restored session reports only
	// post-restore events to its observer.
	Observer Observer
	// Contiguous requires every allocation to be a contiguous node-group
	// run (BlueGene-style partitioning, Section II): fragmentation can
	// then block capacity-feasible placements.
	Contiguous bool
	// Migrate enables on-the-fly defragmentation (Krevat et al.): when a
	// contiguous placement fails, running jobs are compacted toward group
	// zero and the placement retried. Needs Contiguous.
	Migrate bool
	// Prevalidated promises the caller already ran w.Validate(M)
	// successfully, skipping re-validation. Set by sweep drivers that replay
	// one validated workload under many algorithms.
	Prevalidated bool
	// Faults, when non-nil, enables fault injection: node groups fail and
	// recover per the configured trace or MTBF/MTTR model, killing the jobs
	// that hold them; the retry policy decides what happens to the victims.
	Faults *FaultConfig
	// Malleable enables true runtime elasticity for jobs carrying processor
	// bounds: resizes become work-conserving (the remaining work in
	// proc-seconds is invariant, so a shrink stretches the remaining runtime
	// and a grow compresses it), Malleable schedulers get their per-cycle
	// resize proposals applied, the fault path shrinks malleable victims
	// onto their surviving node groups instead of killing them, and
	// contiguous grows fall back to Compact-then-retry. Off by default:
	// resizes then keep the legacy semantics (allocation changes, runtime
	// does not), which preserves every golden result byte-for-byte.
	Malleable bool
	// ResizeOverhead is the reconfiguration cost in seconds added to a
	// job's remaining runtime on every work-conserving resize (data
	// redistribution, checkpoint/restart of the reshaped layout). Only
	// meaningful with Malleable.
	ResizeOverhead int64
}

// Typed configuration errors, testable with errors.Is.
var (
	// ErrNegativeResizeOverhead rejects a negative per-resize penalty.
	ErrNegativeResizeOverhead = errors.New("engine: resize overhead must not be negative")
	// ErrMigrateNeedsContiguous rejects Migrate without Contiguous:
	// defragmentation only runs when a contiguous placement fails.
	ErrMigrateNeedsContiguous = errors.New("engine: Migrate needs Contiguous")
	// ErrTemplateScheduler and ErrTemplateObserver are ValidateTemplate's.
	ErrTemplateScheduler = errors.New("engine: configuration template must not carry a scheduler")
	ErrTemplateObserver  = errors.New("engine: configuration template must not carry an observer")
	// ErrTemplateOwned is a front end's own check on top of ValidateTemplate:
	// the template sets a field it fills in (ProcessECC) or forbids.
	ErrTemplateOwned = errors.New("engine: configuration template sets a field its front end owns")
)

// ValidateTemplate checks cfg as a template that a front end (a sweep
// point, the sharded dispatcher) copies into many runs, each completed with
// a fresh policy and checked by Validate. It must carry no Scheduler, and no
// Observer: events of the copied runs would interleave nondeterministically.
func (cfg Config) ValidateTemplate() error {
	if cfg.Scheduler != nil {
		return ErrTemplateScheduler
	}
	if cfg.Observer != nil {
		return ErrTemplateObserver
	}
	return nil
}

// Validate checks everything New checks except the scheduler, with New's
// Unit default applied first: machine geometry, the allocation policy, the
// resize overhead, and the fault model. Clear errors here beat panics from
// deep inside the machine layer on the first allocation. Errors wrap the
// typed sentinels (ErrMigrateNeedsContiguous, ErrNegativeResizeOverhead,
// ErrOnResizeNeedsMalleable, the fault package's) so callers can test with
// errors.Is.
func (cfg Config) Validate() error {
	if cfg.Unit <= 0 {
		cfg.Unit = 1
	}
	if cfg.M <= 0 {
		return fmt.Errorf("engine: machine size %d must be positive", cfg.M)
	}
	if cfg.Unit > cfg.M {
		return fmt.Errorf("engine: allocation unit %d exceeds machine size %d", cfg.Unit, cfg.M)
	}
	if cfg.M%cfg.Unit != 0 {
		return fmt.Errorf("engine: allocation unit %d does not divide machine size %d", cfg.Unit, cfg.M)
	}
	if cfg.Migrate && !cfg.Contiguous {
		return ErrMigrateNeedsContiguous
	}
	if cfg.ResizeOverhead < 0 {
		return fmt.Errorf("%w (got %d)", ErrNegativeResizeOverhead, cfg.ResizeOverhead)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(); err != nil {
			return err
		}
		if cfg.Faults.Checkpoint == fault.CheckpointOnResize && !cfg.Malleable {
			return fmt.Errorf("engine: fault config: %w", ErrOnResizeNeedsMalleable)
		}
		if cfg.Faults.Trace != nil {
			groups := cfg.M / cfg.Unit
			if err := cfg.Faults.Trace.Validate(groups); err != nil {
				return fmt.Errorf("engine: fault trace: %w", err)
			}
		}
	}
	return nil
}

// Observer receives placement events during a run.
type Observer interface {
	// JobStarted fires at dispatch; groups are the node groups allocated.
	JobStarted(j *job.Job, now int64, groups []int)
	// JobFinished fires when the job leaves the machine.
	JobFinished(j *job.Job, now int64)
	// JobResized fires after the job's allocation changed, from oldSize to
	// newSize processors. auto distinguishes system-initiated resizes
	// (scheduler proposals, fault-path shrinks) from client EP/RP commands.
	JobResized(j *job.Job, now int64, oldSize, newSize int, auto bool)
	// JobKilled fires when a node-group failure kills the running job. If
	// the retry policy requeues it, a later JobStarted opens its next
	// attempt.
	JobKilled(j *job.Job, now int64)
}

// Result is the outcome of a run.
type Result struct {
	Summary metrics.Summary
	ECC     ecc.Stats
	// DroppedECC counts commands ignored because ProcessECC was off.
	DroppedECC int
	// Events is the number of kernel events dispatched; Cycles the number
	// of scheduler invocations.
	Events uint64
	Cycles uint64
	// Migrations counts jobs moved by defragmentation (Migrate mode);
	// FragmentedRejections counts placements refused due to fragmentation.
	Migrations           int
	FragmentedRejections int
	// PeakFragmentedWaste is the largest free-but-unusable capacity seen at
	// any instant (free processors beyond the longest contiguous run;
	// always 0 on scatter machines).
	PeakFragmentedWaste int
}

// Session is a live, incrementally driven simulation. Use New, then Load
// (or Restore, or Inject) to admit work; or Reset, which also readies a
// zero Session and lets one Session serve run after run.
//
// A Session is single-goroutine: it must not be shared without external
// synchronization. Snapshots are only taken between steps — every public
// method returns at an instant boundary, so any point the caller can
// observe is a valid snapshot point.
type Session struct {
	cfg Config
	eng *simkit.Engine

	mach   *machine.Machine
	batch  *job.BatchQueue
	ded    *job.DedicatedQueue
	active *job.ActiveList

	// jobs lists every job this session owns — Load clones plus injected
	// jobs — in admission order. Snapshots reference jobs by index into it.
	jobs []*job.Job
	// clones and cmds back Load's jobs and commands. Their pending
	// arrivals and issues are static kernel events indexing these slices
	// (as fault events index ftrace.Events); Withdraw may shift jobs, never
	// clones.
	clones []job.Job
	cmds   []cwf.Command
	// ids dedups injected job IDs; built lazily on the first Inject so the
	// sweep hot path (Load + Run only) never allocates it, and kept equal
	// to the IDs in jobs from then on. The value marks jobs admitted by
	// AbsorbAt with an arrival in the past (the sharded dispatcher's steal
	// path): they enter the batch queue out of arrival order by design, so
	// the paranoid FIFO check skips them.
	ids *idtab.Table[bool]

	// completion maps job ID -> pending completion event of each running
	// job.
	completion  idtab.Table[simkit.Handle]
	collector   *metrics.Collector
	proc        *ecc.Processor
	dropped     int
	cycles      uint64
	fragRejects int
	peakWaste   int

	// ctx is the scheduler context, built once and reset per cycle; its
	// scratch buffers (the DP candidate window) survive across cycles.
	ctx sched.Context
	// st is non-nil when the policy accepts state deltas (sched.Stateful):
	// the engine then reports starts, completions, ECC mutations and queue
	// changes so the policy maintains its caches incrementally instead of
	// rebuilding them every cycle. Armed via ResetDeltas in Load/Restore.
	st sched.Stateful
	// malleable is non-nil when Config.Malleable is on and the policy emits
	// resize proposals (sched.Malleable); scheduleInstant then collects and
	// applies proposals after every Schedule call.
	malleable sched.Malleable
	// arriveH/completeH/commandH/faultH/ckptH are the shared event
	// callbacks and startFn the scheduler context's start callback, bound
	// once per Session so the hot paths schedule through simkit.AtArg
	// without allocating a closure per event. Load's arrivals and commands
	// and the fault trace are static events instead (staticEv); faultH
	// serves only fault events reinstated by Restore.
	arriveH, completeH, commandH, faultH, ckptH simkit.ArgHandler
	startFn                                     func(*job.Job) bool
	// ftrace is the resolved fault trace (scripted or sampled at Load);
	// nil when fault injection is off.
	ftrace *fault.Trace
	// ckpt maps job ID -> pending checkpoint event of the running attempt;
	// used only under a timer-driven checkpoint policy (periodic or daly),
	// the ones with a nonzero ckptEvery. ckptEvery is the resolved base
	// (single-group) wall interval between a job's checkpoints; daly jobs
	// spanning several node groups shorten it per job (ckptIntervalFor).
	ckpt      idtab.Table[simkit.Handle]
	ckptEvery int64

	// loaded latches after Load or Restore; failed latches the first
	// unrecoverable error (livelock), after which the session is dead.
	loaded bool
	failed error
}

// noopWake is the dedicated-start wake event: it exists only to force a
// scheduler cycle at the requested start instant.
func noopWake(int64, any) {}

func (s *Session) arriveEv(now int64, arg any)   { s.arrive(arg.(*job.Job), now) }
func (s *Session) completeEv(now int64, arg any) { s.complete(arg.(*job.Job), now) }
func (s *Session) commandEv(_ int64, arg any)    { s.command(*arg.(*cwf.Command)) }

// Static event kinds: Load's arrivals and commands, and the fault trace
// Load or ArmFaults resolved. Each indexes the slice it names.
const (
	arriveK  simkit.StaticKind = iota + 1 // Session.clones
	commandK                              // Session.cmds
	faultK                                // Session.ftrace.Events
)

func (s *Session) staticEv(now int64, k simkit.StaticKind, i int) {
	switch k {
	case arriveK:
		s.arrive(&s.clones[i], now)
	case commandK:
		s.command(s.cmds[i])
	case faultK:
		s.applyFault(&s.ftrace.Events[i], now)
	}
}

// getCompletion returns the recorded completion handle. The zero Handle
// comes back for IDs with no pending completion; callers may pass it
// straight to simkit's Cancel, which documents cancelling a zero or stale
// handle as a no-op.
func (s *Session) getCompletion(id int) simkit.Handle {
	h, _ := s.completion.Get(id)
	return h
}

// New builds an empty session for the configuration: machine and queues
// ready, clock at zero, no work admitted. It validates the configuration
// (scheduler present, coherent machine geometry) up front. It is Reset on
// a zero Session.
func New(cfg Config) (*Session, error) {
	s := new(Session)
	if err := s.Reset(cfg, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset readies the session for a new run: afterwards it is exactly what
// New(cfg) followed by Load(w) would have built, or New(cfg) alone when w
// is nil. Reset works on any session, finished, failed or mid-run, and on
// the zero Session. Unlike New it keeps what the previous run allocated
// and reuses it: the job clone slab and the job and command lists, the
// event kernel's arena, heap and static source, the three queues, the
// completion and checkpoint tables, the metrics collector, the ECC
// processor, and the machine when M, Unit, Contiguous and Migrate all
// match the previous run's (otherwise a new machine is built).
//
// Aliasing contract: everything the previous run lent out of that storage
// is invalid after Reset, as a WaitingBatch view already is after the next
// step. That covers the *job.Job pointers handed to observers (they may
// now name the new run's jobs), WaitingBatch and ActiveJobs views, and
// Samples views. Result values never alias session storage, and a
// Snapshot shares nothing with the session, so both stay valid.
//
// A configuration error leaves the session untouched. A workload error
// latches, as a livelock does, until the next Reset.
func (s *Session) Reset(cfg Config, w *cwf.Workload) error {
	if cfg.Scheduler == nil {
		return errors.New("engine: no scheduler configured")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Unit <= 0 {
		cfg.Unit = 1
	}
	clear(s.jobs) // drop the pointers to injected jobs
	prev := *s
	*s = Session{
		cfg:        cfg,
		eng:        prev.eng,
		batch:      prev.batch,
		ded:        prev.ded,
		active:     prev.active,
		jobs:       prev.jobs[:0],
		clones:     prev.clones[:0],
		cmds:       prev.cmds[:0],
		ids:        prev.ids,
		completion: prev.completion,
		ckpt:       prev.ckpt,
		collector:  prev.collector,
		arriveH:    prev.arriveH,
		completeH:  prev.completeH,
		commandH:   prev.commandH,
		faultH:     prev.faultH,
		ckptH:      prev.ckptH,
		startFn:    prev.startFn,
	}
	if s.eng == nil {
		// A zero Session: allocate the run state and bind the callbacks
		// once, so the hot paths schedule through simkit.AtArg without a
		// closure per event and later resets allocate none of this again.
		s.eng = simkit.New()
		s.eng.OnStatic(s.staticEv)
		s.batch = job.NewBatchQueue()
		s.ded = job.NewDedicatedQueue()
		s.active = job.NewActiveList()
		s.collector = metrics.NewCollector(cfg.M)
		s.arriveH, s.completeH, s.commandH = s.arriveEv, s.completeEv, s.commandEv
		s.faultH, s.ckptH = s.faultEv, s.ckptEv
		s.startFn = s.start
	} else {
		s.eng.Reset()
		s.batch.Reset()
		s.ded.Reset()
		s.active.Reset()
		if s.ids != nil {
			s.ids.Reset()
		}
		s.completion.Reset()
		s.ckpt.Reset()
	}
	s.collector.Reset(cfg.M, 0)

	if prev.mach != nil && prev.cfg.M == cfg.M && prev.cfg.Unit == cfg.Unit &&
		prev.cfg.Contiguous == cfg.Contiguous && prev.cfg.Migrate == cfg.Migrate {
		s.mach = prev.mach
		s.mach.Reset()
	} else {
		newMachine := machine.New
		if cfg.Contiguous {
			newMachine = machine.NewContiguous
		}
		s.mach = newMachine(cfg.M, cfg.Unit)
		if cfg.Migrate {
			s.mach.EnableMigration()
		}
	}
	if cfg.ProcessECC {
		s.proc = prev.proc
		if s.proc == nil {
			s.proc = ecc.NewProcessor(cfg.MaxECCPerJob)
		} else {
			s.proc.Reset(cfg.MaxECCPerJob)
		}
	}
	s.ctx = sched.Context{
		Machine:   s.mach,
		Batch:     s.batch,
		Dedicated: s.ded,
		Active:    s.active,
		StartFn:   s.startFn,
	}
	if st, ok := cfg.Scheduler.(sched.Stateful); ok {
		s.st = st
		// Arm the delta feed immediately: sessions fed purely by Inject (the
		// epoch dispatcher's path) never call Load, which is where the feed
		// was armed before. Load re-arms, so the double call is harmless.
		s.st.ResetDeltas()
	}
	if cfg.Malleable {
		if m, ok := cfg.Scheduler.(sched.Malleable); ok {
			s.malleable = m
		}
	}
	if cfg.Faults != nil {
		if ivl := cfg.Faults.ResolvedCheckpointInterval(); ivl > 0 {
			s.ckptEvery = ivl
		}
	}
	if w == nil {
		return nil
	}
	if err := s.Load(w); err != nil {
		s.failed = err
		return err
	}
	return nil
}

// quantize puts an admitted clone on the allocation grid: its size rounds
// up to the unit, and a malleable job's bounds round inward — MinProcs up,
// MaxProcs down — reconciled with the rounded size, which may itself have
// passed a bound. Validate guaranteed MinProcs <= Size <= MaxProcs in raw
// units; afterwards it holds on the grid, and every resize path (ECC,
// AutoResize, the fault shrink) keeps it. This is the only place bounds
// are quantized: everything downstream reads MinProcs and MaxProcs as
// admitted.
func (s *Session) quantize(j *job.Job) error {
	q, err := s.mach.Quantize(j.Size)
	if err != nil {
		return fmt.Errorf("engine: job %d: %v", j.ID, err)
	}
	j.Size = q
	if j.MaxProcs > 0 {
		unit := s.mach.Unit()
		j.MinProcs = min((j.MinProcs+unit-1)/unit*unit, q)
		j.MaxProcs = max(j.MaxProcs/unit*unit, q)
	}
	return nil
}

// pristine reports whether the session has neither admitted work nor
// dispatched events — the only state Load and Restore accept.
func (s *Session) pristine() bool {
	return !s.loaded && len(s.jobs) == 0 && s.eng.Dispatched() == 0 && s.eng.Pending() == 0
}

// Load seeds the session with a workload. The workload is not mutated:
// jobs are cloned first, so the same workload can be replayed under every
// algorithm of a comparison. Load may be called once, on a fresh session.
func (s *Session) Load(w *cwf.Workload) error {
	if !s.pristine() {
		return errors.New("engine: Load on a session that already has work")
	}
	if !s.cfg.Prevalidated {
		if err := w.Validate(s.cfg.M); err != nil {
			return err
		}
	}
	if w.NumDedicated() > 0 && !s.cfg.Scheduler.Heterogeneous() {
		return fmt.Errorf("engine: workload has dedicated jobs but %s is batch-only", s.cfg.Scheduler.Name())
	}

	s.collector.Reset(s.cfg.M, len(w.Jobs))

	// Clone jobs (quantizing sizes to the machine unit) and register the
	// arrival and command streams as static events indexing the clones and
	// the command copy. All three fill storage a Reset session reuses.
	s.clones = slices.Grow(s.clones[:0], len(w.Jobs))[:len(w.Jobs)]
	s.jobs = slices.Grow(s.jobs, len(w.Jobs))
	s.eng.GrowStatic(len(w.Jobs) + len(w.Commands))
	for i, orig := range w.Jobs {
		s.clones[i] = *orig
		j := &s.clones[i]
		if err := s.quantize(j); err != nil {
			return err
		}
		s.jobs = append(s.jobs, j)
		s.eng.AtStatic(j.Arrival, arriveK, i)
	}
	s.cmds = append(s.cmds[:0], w.Commands...)
	for i := range s.cmds {
		s.eng.AtStatic(s.cmds[i].Issue, commandK, i)
	}
	if s.cfg.Faults != nil {
		if err := s.loadFaults(w); err != nil {
			return err
		}
	}
	if s.st != nil {
		s.st.ResetDeltas()
	}
	s.loaded = true
	return nil
}

// Inject admits one job online, at or after the current instant — the
// entry point a serving layer feeds live submissions through. The job is
// cloned and its size quantized; the caller's struct is not retained. The
// injected arrival participates in scheduling exactly like a loaded one.
func (s *Session) Inject(j *job.Job) error {
	if s.failed != nil {
		return s.failed
	}
	if err := j.Validate(s.cfg.M); err != nil {
		return err
	}
	if j.Class == job.Dedicated && !s.cfg.Scheduler.Heterogeneous() {
		return fmt.Errorf("engine: job %d is dedicated but %s is batch-only", j.ID, s.cfg.Scheduler.Name())
	}
	if j.Arrival < s.eng.Now() {
		return fmt.Errorf("engine: inject job %d with arrival %d before now %d", j.ID, j.Arrival, s.eng.Now())
	}
	_, err := s.admit(j, j.Arrival, "inject")
	return err
}

// admit is the online admission Inject and AbsorbAt share: it clones j,
// quantizes its size and bounds, takes ownership of the clone, and
// schedules its arrival at instant at. A job ID the session already owns
// is refused; verb names the caller in that error.
func (s *Session) admit(j *job.Job, at int64, verb string) (*job.Job, error) {
	if s.ids == nil {
		s.ids = new(idtab.Table[bool])
	}
	if s.ids.Len() == 0 {
		// Empty with jobs owned means not yet filled since Load, Restore or
		// Reset: a filled table holds every owned ID.
		for _, ex := range s.jobs {
			s.ids.Put(ex.ID, false)
		}
	}
	if _, dup := s.ids.Get(j.ID); dup {
		return nil, fmt.Errorf("engine: %s duplicate job ID %d", verb, j.ID)
	}
	clone := new(job.Job)
	*clone = *j
	if err := s.quantize(clone); err != nil {
		return nil, err
	}
	s.jobs = append(s.jobs, clone)
	s.ids.Put(clone.ID, false)
	s.eng.AtArg(at, s.arriveH, clone)
	return clone, nil
}

// InjectCommand admits one Elastic Control Command online, issued at or
// after the current instant. A command referencing a job this session has
// never seen is applied anyway and accounted as ignored by the processor,
// matching how a stale command in a workload file is treated.
func (s *Session) InjectCommand(c cwf.Command) error {
	if s.failed != nil {
		return s.failed
	}
	if !c.Type.IsECC() {
		return fmt.Errorf("engine: inject %v which is not an ECC", c)
	}
	if c.Amount <= 0 {
		return fmt.Errorf("engine: inject %v with non-positive amount", c)
	}
	if c.Issue < s.eng.Now() {
		return fmt.Errorf("engine: inject %v with issue %d before now %d", c, c.Issue, s.eng.Now())
	}
	cp := new(cwf.Command)
	*cp = c
	s.eng.AtArg(cp.Issue, s.commandH, cp)
	return nil
}

// Step advances the simulation by exactly one instant: it dispatches every
// event sharing the earliest pending timestamp, then runs the scheduler to
// its fixed point there. It reports false when no events remain (the
// simulation is complete) or an error is latched.
func (s *Session) Step() (bool, error) {
	if s.failed != nil {
		return false, s.failed
	}
	if _, ok := s.eng.StepTimestamp(); !ok {
		return false, nil
	}
	if err := s.afterInstant(); err != nil {
		return false, err
	}
	return true, nil
}

// RunUntil advances the simulation through every instant with timestamp at
// most deadline, then stops with later events still pending. The clock is
// left at the last dispatched instant (it does not jump to the deadline).
func (s *Session) RunUntil(deadline int64) error {
	if s.failed != nil {
		return s.failed
	}
	for {
		t, ok := s.eng.PeekTime()
		if !ok || t > deadline {
			return nil
		}
		s.eng.StepTimestamp()
		if err := s.afterInstant(); err != nil {
			return err
		}
	}
}

// Run advances the simulation until no events remain.
func (s *Session) Run() error {
	if s.failed != nil {
		return s.failed
	}
	for {
		if _, ok := s.eng.StepTimestamp(); !ok {
			return nil
		}
		if err := s.afterInstant(); err != nil {
			return err
		}
	}
}

// afterInstant completes one instant after its events drained: scheduler
// fixed point, fragmentation accounting, paranoid invariant checks.
func (s *Session) afterInstant() error {
	if err := s.scheduleInstant(); err != nil {
		s.failed = err
		return err
	}
	if s.cfg.Contiguous {
		if w := s.mach.FragmentedWaste(); w > s.peakWaste {
			s.peakWaste = w
		}
	}
	if s.cfg.Paranoid {
		if err := s.checkInvariants(); err != nil {
			s.failed = err
			return err
		}
	}
	return nil
}

// Now returns the current simulated time (also the ecc.Target clock).
func (s *Session) Now() int64 { return s.eng.Now() }

// NextEventTime returns the timestamp of the next pending event, if any.
func (s *Session) NextEventTime() (int64, bool) { return s.eng.PeekTime() }

// Pending returns the number of scheduled future events.
func (s *Session) Pending() int { return s.eng.Pending() }

// Waiting returns the number of queued (batch plus dedicated) jobs.
func (s *Session) Waiting() int { return s.batch.Len() + s.ded.Len() }

// Running returns the number of jobs currently on the machine.
func (s *Session) Running() int { return s.active.Len() }

// Done reports whether the simulation has drained every event.
func (s *Session) Done() bool { return s.failed == nil && s.eng.Pending() == 0 }

// Result reports the metrics accumulated so far. It may be called at any
// instant boundary: mid-run it digests the partial history; once the event
// queue has drained it is the run's final outcome, and jobs still queued
// or running at that point are reported as a scheduler deadlock error.
func (s *Session) Result() (*Result, error) {
	if s.failed != nil {
		return nil, s.failed
	}
	if s.eng.Pending() == 0 && (s.active.Len() != 0 || s.batch.Len() != 0 || s.ded.Len() != 0) {
		return nil, fmt.Errorf("engine: drained event queue with %d running, %d batch-queued, %d dedicated-queued jobs (scheduler deadlock)",
			s.active.Len(), s.batch.Len(), s.ded.Len())
	}
	res := &Result{
		Summary:              s.collector.Summary(),
		DroppedECC:           s.dropped,
		Events:               s.eng.Dispatched(),
		Cycles:               s.cycles,
		Migrations:           s.mach.Migrations(),
		FragmentedRejections: s.fragRejects,
		PeakFragmentedWaste:  s.peakWaste,
	}
	if s.proc != nil {
		res.ECC = s.proc.Stats
	}
	return res, nil
}

// Run executes the workload under the configuration and returns the
// measured result: New + Load + Session.Run + Result. The workload is not
// mutated, so the same workload can be replayed under every algorithm of a
// comparison.
func Run(w *cwf.Workload, cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Load(w); err != nil {
		return nil, err
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	return s.Result()
}

// checkInvariants verifies, at the end of an instant, the machine's
// internal consistency and the paper's Notations-box orderings: W^d sorted
// by requested start, A sorted by residual (kill-by) time, W^b FIFO by
// arrival after any rigid prefix, and the machine's used count matching the
// active list.
func (s *Session) checkInvariants() error {
	if err := s.mach.CheckInvariants(); err != nil {
		return err
	}
	if used := s.active.UsedProcessors(); used != s.mach.Used() {
		return fmt.Errorf("engine: active list holds %d procs, machine says %d", used, s.mach.Used())
	}
	ded := s.ded.Jobs()
	for i := 1; i < len(ded); i++ {
		if ded[i-1].ReqStart > ded[i].ReqStart {
			return fmt.Errorf("engine: dedicated queue unsorted at %d", i)
		}
	}
	act := s.active.Jobs()
	for i := 1; i < len(act); i++ {
		if act[i-1].EndTime > act[i].EndTime {
			return fmt.Errorf("engine: active list unsorted at %d", i)
		}
	}
	batch := s.batch.Jobs()
	i := 0
	for i < len(batch) && batch[i].Rigid {
		i++
	}
	for k := i + 1; k < len(batch); k++ {
		if batch[k-1].Rigid {
			return fmt.Errorf("engine: rigid job %d behind non-rigid work", batch[k-1].ID)
		}
		if batch[k-1].Arrival > batch[k].Arrival &&
			!s.absorbed(batch[k-1].ID) && !s.absorbed(batch[k].ID) {
			// Absorbed (stolen) jobs keep their original arrival for wait
			// accounting but queue FIFO by admission instant, so pairs
			// involving one are exempt from the arrival-order check.
			return fmt.Errorf("engine: batch queue not FIFO at %d", k)
		}
	}
	unit := s.mach.Unit()
	for _, j := range act {
		if j.State != job.Running {
			return fmt.Errorf("engine: job %d in active list with state %v", j.ID, j.State)
		}
		if err := checkBounds(j, unit); err != nil {
			return err
		}
	}
	for _, j := range batch {
		if err := checkBounds(j, unit); err != nil {
			return err
		}
	}
	return nil
}

// ErrOffGridBounds reports a malleable job whose size or bounds break the
// rule admission establishes and every resize path keeps: MinProcs <= Size
// <= MaxProcs, all positive multiples of the allocation unit.
var ErrOffGridBounds = errors.New("engine: malleable job off its admitted bounds")

// checkBounds checks j against the admitted-bounds rule; rigid jobs pass.
func checkBounds(j *job.Job, unit int) error {
	if !j.Malleable() {
		return nil
	}
	if j.MinProcs <= 0 || j.MinProcs > j.Size || j.Size > j.MaxProcs ||
		j.MinProcs%unit != 0 || j.Size%unit != 0 || j.MaxProcs%unit != 0 {
		return fmt.Errorf("%w: job %d has size %d, bounds [%d, %d], unit %d",
			ErrOffGridBounds, j.ID, j.Size, j.MinProcs, j.MaxProcs, unit)
	}
	return nil
}

// maxCyclesPerInstant bounds the scheduler fixed-point loop; exceeding it
// means the policy livelocked.
const maxCyclesPerInstant = 1 << 20

// scheduleInstant re-invokes the policy until it makes no progress.
func (s *Session) scheduleInstant() error {
	for iter := 0; ; iter++ {
		if iter >= maxCyclesPerInstant {
			return fmt.Errorf("engine: scheduler %s made progress for %d consecutive cycles at t=%d (livelock)",
				s.cfg.Scheduler.Name(), iter, s.eng.Now())
		}
		s.ctx.Now = s.eng.Now()
		s.ctx.Progress = false
		s.ctx.Starts = 0
		s.cfg.Scheduler.Schedule(&s.ctx)
		s.cycles++
		if s.malleable != nil {
			// Apply the policy's resize proposals through the unified
			// pipeline. An applied proposal is progress (the freed or grown
			// capacity changes what Schedule can do); an unapplicable one
			// (contiguous fragmentation, a group failure racing the
			// proposal) is dropped without progress so the fixed-point loop
			// still terminates.
			for _, p := range s.malleable.ProposeResizes(&s.ctx) {
				if p.Job == nil || p.NewSize == p.Job.Size {
					continue
				}
				if err := s.applyResize(p.Job, p.NewSize, true); err == nil {
					s.ctx.Progress = true
				}
			}
		}
		if !s.ctx.Progress {
			return nil
		}
	}
}

// arrive admits a job to its waiting queue.
func (s *Session) arrive(j *job.Job, now int64) {
	j.State = job.Waiting
	j.LastSkip = -1
	s.collector.JobArrived(j, now)
	if s.st != nil {
		s.st.JobArrived(j, now)
	}
	if j.Class == job.Dedicated {
		s.ded.Push(j)
		if j.ReqStart > now {
			// Wake the scheduler at the rigid start time even if no other
			// event lands there.
			s.eng.AtArg(j.ReqStart, noopWake, nil)
		}
		return
	}
	if j.Rigid {
		// A failure victim resubmitted by the retry policy re-enters at the
		// head of the batch queue. Fresh arrivals never carry Rigid.
		s.batch.PushFront(j)
		return
	}
	s.batch.Push(j)
}

// start dispatches a waiting job; invoked by the policy via Context.Start.
// It returns false when a contiguous placement fails due to fragmentation
// (after a compaction retry if migration is enabled).
func (s *Session) start(j *job.Job) bool {
	now := s.eng.Now()
	if err := s.mach.Alloc(j.ID, j.Size); err != nil {
		if !s.mach.Contiguous() || j.Size > s.mach.Free() {
			// A policy starting a job beyond free capacity is a bug, not a
			// recoverable condition.
			panic(fmt.Sprintf("engine: %s started job that does not fit: %v", s.cfg.Scheduler.Name(), err))
		}
		if s.cfg.Migrate {
			s.mach.Compact()
			err = s.mach.Alloc(j.ID, j.Size)
		}
		if err != nil {
			s.fragRejects++
			return false
		}
	}
	j.State = job.Running
	j.StartTime = now
	// EndTime is the kill-by time schedulers plan with (estimate-based);
	// the actual completion may come earlier (premature termination) and
	// can never come later (overrunning jobs are killed).
	j.EndTime = now + j.Dur
	// Each attempt restarts its checkpoint clock: until one is taken, a
	// kill restarts this attempt from scratch.
	j.CkptAt = now
	s.completion.Put(j.ID, s.eng.AtArg(now+j.EffectiveRuntime(), s.completeH, j))
	s.scheduleFirstCheckpoint(j, now)
	s.active.Insert(j)
	s.collector.JobStarted(j, now)
	if s.st != nil {
		s.st.JobStarted(j, now)
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.JobStarted(j, now, s.mach.OwnedGroups(j.ID))
	}
	return true
}

// complete retires a running job at its kill-by time.
func (s *Session) complete(j *job.Job, now int64) {
	if err := s.mach.Release(j.ID); err != nil {
		panic(fmt.Sprintf("engine: completing job %d: %v", j.ID, err))
	}
	s.active.Remove(j)
	s.completion.Delete(j.ID)
	s.cancelCheckpoint(j.ID)
	j.State = job.Finished
	j.FinishTime = now
	s.collector.JobFinished(j, now)
	if s.st != nil {
		s.st.JobFinished(j, now)
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.JobFinished(j, now)
	}
}

// command processes one Elastic Control Command event.
func (s *Session) command(c cwf.Command) {
	if s.proc == nil {
		s.dropped++
		return
	}
	s.proc.Apply(c, s)
}

// --- ecc.Target implementation -------------------------------------------

// FindWaiting implements ecc.Target.
func (s *Session) FindWaiting(id int) *job.Job {
	if j := s.batch.Find(id); j != nil {
		return j
	}
	return s.ded.Find(id)
}

// FindRunning implements ecc.Target.
func (s *Session) FindRunning(id int) *job.Job { return s.active.Find(id) }

// RetimeRunning implements ecc.Target: reposition j in the active list and
// move the completion event to the new effective termination time (the
// actual runtime capped by the mutated kill-by time).
func (s *Session) RetimeRunning(j *job.Job, oldEnd int64) {
	now := s.eng.Now()
	if j.EndTime < now {
		j.EndTime = now
	}
	s.active.Reposition(j)
	s.eng.Cancel(s.getCompletion(j.ID))
	at := j.StartTime + j.EffectiveRuntime()
	if at < now {
		at = now
	}
	s.completion.Put(j.ID, s.eng.AtArg(at, s.completeH, j))
	if s.st != nil {
		s.st.JobRetimed(j, oldEnd, now)
	}
}

// ResizeRunning implements ecc.Target: client EP/RP commands flow through
// the same applyResize pipeline as scheduler proposals and fault shrinks.
func (s *Session) ResizeRunning(j *job.Job, newSize int) error {
	return s.applyResize(j, newSize, false)
}

// applyResize is the single resize pipeline every initiator shares: it
// validates the request, reshapes the machine allocation (with a
// Compact-then-retry fallback for fragmented contiguous grows in Malleable
// mode), applies the work-conserving runtime rescale, and fans out the
// retime/resize deltas in the order the Stateful contract requires.
// auto marks system-initiated resizes (scheduler proposals), which are
// additionally held to the job's malleable bounds.
func (s *Session) applyResize(j *job.Job, newSize int, auto bool) error {
	oldSize := j.Size
	if newSize == oldSize {
		return nil
	}
	if auto {
		if j.Class != job.Batch || !j.Malleable() {
			return fmt.Errorf("engine: scheduler resize of non-malleable job %d", j.ID)
		}
		if newSize < j.MinProcs || newSize > j.MaxProcs {
			return fmt.Errorf("engine: scheduler resize of job %d to %d outside [%d, %d]",
				j.ID, newSize, j.MinProcs, j.MaxProcs)
		}
		if !s.mach.AllUp(j.ID) {
			return fmt.Errorf("engine: scheduler resize of job %d holding failed groups", j.ID)
		}
	}
	if err := s.mach.Resize(j.ID, newSize); err != nil {
		if !s.cfg.Malleable || !s.mach.Contiguous() || newSize <= oldSize ||
			newSize-oldSize > s.mach.Free() {
			return err
		}
		// A fragmented contiguous grow: compact the machine and retry once
		// (Compact is a no-op during an outage, so the retry may still fail).
		// A compaction that moved jobs changed which sizes fit even when the
		// retry fails, so the policy hears of it as a capacity change.
		moved := s.mach.Compact()
		if err := s.mach.Resize(j.ID, newSize); err != nil {
			if moved > 0 && s.st != nil {
				s.st.CapacityChanged(s.eng.Now())
			}
			return err
		}
	}
	s.finishResize(j, newSize, auto)
	return nil
}

// finishResize completes a resize whose machine half is already done: the
// work-conserving runtime rescale (Malleable mode), the completion retime,
// the metrics counters, and the delta fan-out. The fault path calls it
// directly after ShrinkDraining reshaped the allocation in place.
//
// Delta order matters: JobRetimed must fire while j.Size still holds the
// old allocation (stateful policies patch the changed end window at the
// current size), and JobResized after the size flips (they then patch the
// size delta over the final window).
func (s *Session) finishResize(j *job.Job, newSize int, auto bool) {
	now := s.eng.Now()
	oldSize := j.Size
	if s.cfg.Malleable {
		if rem := j.EndTime - now; rem > 0 {
			// Under the on-resize policy every applied resize doubles as a
			// checkpoint: reconfiguration already redistributes the job's
			// data, so only the checkpoint cost is charged on top of the
			// resize overhead, and the restart point moves here.
			var ckptCost int64
			onResizeCkpt := s.cfg.Faults != nil &&
				s.cfg.Faults.Checkpoint == fault.CheckpointOnResize && j.Class == job.Batch
			if onResizeCkpt {
				ckptCost = s.cfg.Faults.CheckpointCost
			}
			newRem := job.RescaleRemaining(rem, oldSize, newSize) + s.cfg.ResizeOverhead + ckptCost
			oldEnd := j.EndTime
			j.EndTime = now + newRem
			j.Dur = j.EndTime - j.StartTime
			if j.Actual > 0 {
				elapsed := now - j.StartTime
				if remAct := j.Actual - elapsed; remAct > 0 {
					j.Actual = elapsed + job.RescaleRemaining(remAct, oldSize, newSize) + s.cfg.ResizeOverhead + ckptCost
				}
			}
			s.RetimeRunning(j, oldEnd)
			s.collector.ResizeOverheadApplied(s.cfg.ResizeOverhead)
			if onResizeCkpt {
				j.CkptAt = now
				s.collector.CheckpointTaken(ckptCost, newSize)
			}
			if newSize < oldSize {
				s.collector.ProcsShrunk(float64(oldSize-newSize) * float64(rem))
			}
		}
	}
	j.Size = newSize
	s.collector.SizeChanged(newSize-oldSize, now)
	if auto {
		s.collector.SchedulerResized()
	}
	if s.st != nil {
		s.st.JobResized(j, oldSize, now)
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.JobResized(j, now, oldSize, newSize, auto)
	}
}

// TouchWaiting implements ecc.Target: a queued job's requirements changed
// in place, invalidating queue-derived scheduler caches.
func (s *Session) TouchWaiting(j *job.Job) {
	if s.st != nil {
		s.st.QueueChanged()
	}
}

// MachineTotal implements ecc.Target.
func (s *Session) MachineTotal() int { return s.mach.Total() }

// MachineUnit implements ecc.Target.
func (s *Session) MachineUnit() int { return s.mach.Unit() }
