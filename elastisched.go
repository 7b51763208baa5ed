// Package elastisched is a library for scheduling batch and heterogeneous
// jobs with runtime elasticity in a parallel processing environment,
// reproducing Kumar, Shae & Jamjoom (IPDPS 2012).
//
// It provides:
//
//   - a discrete-event simulation engine for a BlueGene/P-style machine
//     (M processors allocated in node groups);
//   - the paper's scheduler family — LOS, Delayed-LOS and Hybrid-LOS — next
//     to EASY backfilling and classic baselines, each composable with a
//     dedicated-job queue (-D) and an Elastic Control Command processor (-E);
//   - the Cloud Workload Format (CWF): the Standard Workload Format extended
//     with requested start times and ET/RT/EP/RP elasticity commands;
//   - a Lublin-model synthetic workload generator; and
//   - the paper's full evaluation (Figures 1, 5-11; Tables IV-VII) as
//     runnable experiments.
//
// Quick start:
//
//	params := elastisched.DefaultWorkloadParams()
//	params.PS = 0.2          // mostly large jobs
//	params.TargetLoad = 0.9  // offered load
//	w, _ := elastisched.GenerateWorkload(params)
//	res, _ := elastisched.Simulate(w, "Delayed-LOS", elastisched.Options{})
//	fmt.Println(res.Summary)
//
// Options holds Config, the engine's own run configuration, so a setting
// has one name here, in sweep points and in the sharded dispatcher:
//
//	opt := elastisched.Options{Cs: 7, Config: elastisched.Config{Contiguous: true, Migrate: true}}
package elastisched

import (
	"fmt"
	"io"

	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/dispatch"
	"elastisched/internal/engine"
	"elastisched/internal/experiment"
	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
	"elastisched/internal/swf"
	"elastisched/internal/trace"
	"elastisched/internal/workload"
)

// Re-exported core types. See the corresponding internal packages for the
// full documentation of each.
type (
	// Workload is a parsed or generated CWF workload: job submissions plus
	// the elastic control command stream.
	Workload = cwf.Workload
	// WorkloadParams configures the synthetic generator (paper Section IV-D).
	WorkloadParams = workload.Params
	// Summary holds the measured metrics of one run: utilization, mean
	// wait, slowdown, and diagnostics.
	Summary = metrics.Summary
	// Config configures one engine run: machine geometry, allocation
	// policy, fault injection, malleability, observer. Options holds it.
	Config = engine.Config
	// Result is the outcome of one simulation run.
	Result = engine.Result
	// Scheduler is a scheduling policy usable with the engine.
	Scheduler = sched.Scheduler
	// Experiment is a paper figure/table (or extension study) as code.
	Experiment = experiment.Experiment
	// ExperimentResult is one completed sweep panel.
	ExperimentResult = experiment.Result
	// Trace records per-job placement during a run and renders ASCII/SVG
	// Gantt charts of the schedule.
	Trace = trace.Recorder
	// Session is a live, incrementally driven simulation: step it, inject
	// jobs and commands online, snapshot and restore it. See NewSession.
	Session = engine.Session
	// SessionSnapshot is the complete captured state of a Session, JSON
	// encodable via its Encode method and restorable via ResumeSession.
	SessionSnapshot = engine.Snapshot
	// FaultConfig enables node-group fault injection for a run: either a
	// scripted FaultTrace or sampled MTBF/MTTR outages, plus the retry
	// policy applied to killed jobs. Attach it via Config.Faults.
	FaultConfig = engine.FaultConfig
	// FaultTrace is a replayable sequence of node-group failure and repair
	// events; parse one with ParseFaultTrace or let the engine sample one.
	FaultTrace = fault.Trace
	// FaultEvent is one failure or repair of a set of node groups.
	FaultEvent = fault.Event
	// RetryPolicy configures what happens to batch jobs killed by a
	// failure: Requeue (at the head of the queue, with FullRuntime or
	// RemainingRuntime restart, bounded by MaxRetries and delayed by
	// Backoff) or Drop.
	RetryPolicy = fault.RetryPolicy
	// CheckpointPolicy selects how running batch jobs checkpoint their
	// progress: CheckpointNone (kills follow the RetryPolicy restart
	// binary), CheckpointPeriodic (every FaultConfig.CheckpointInterval
	// seconds), CheckpointOnResize (every applied malleable resize doubles
	// as a checkpoint), or CheckpointDaly (periodic at Daly's optimal
	// interval sqrt(2·MTBF·C)). Set it via FaultConfig.Checkpoint.
	CheckpointPolicy = fault.CheckpointPolicy
)

// Retry-policy mode and restart constants; see RetryPolicy.
const (
	Requeue          = fault.Requeue
	Drop             = fault.Drop
	FullRuntime      = fault.FullRuntime
	RemainingRuntime = fault.RemainingRuntime
)

// Checkpoint-policy constants; see CheckpointPolicy.
const (
	CheckpointNone     = fault.CheckpointNone
	CheckpointPeriodic = fault.CheckpointPeriodic
	CheckpointOnResize = fault.CheckpointOnResize
	CheckpointDaly     = fault.CheckpointDaly
)

// ParseCheckpointPolicy resolves "none", "periodic", "on-resize" or "daly"
// (the empty string means none).
func ParseCheckpointPolicy(s string) (CheckpointPolicy, error) {
	return fault.ParseCheckpointPolicy(s)
}

// DalyInterval returns Daly's first-order optimal checkpoint interval
// sqrt(2·MTBF·C) for a mean time between failures and per-checkpoint cost,
// floored to whole seconds (at least 1).
func DalyInterval(mtbf float64, cost int64) int64 { return fault.DalyInterval(mtbf, cost) }

// ParseFaultTrace reads a scripted fault trace: one "<time> fail|repair
// <group>[,<group>...]" event per line, times non-decreasing, #-comments
// ignored.
func ParseFaultTrace(r io.Reader) (*FaultTrace, error) { return fault.Parse(r) }

// WriteFaultTrace emits a trace in the format ParseFaultTrace reads — for
// persisting a sampled trace (Session.FaultTrace) as a replayable script.
func WriteFaultTrace(w io.Writer, t *FaultTrace) error { return fault.Write(w, t) }

// NewTrace returns a placement recorder for a machine of m processors in
// groups of unit; attach it as Config.Observer.
func NewTrace(m, unit int) *Trace { return trace.NewRecorder(m, unit) }

// DefaultWorkloadParams returns the paper's experimental configuration:
// a 320-processor BlueGene/P in groups of 32, Table I runtime parameters
// and Table II arrival parameters.
func DefaultWorkloadParams() WorkloadParams { return workload.DefaultParams() }

// SDSCLikeParams returns parameters mimicking the SDSC SP2 archive log used
// in the paper's Figure 1.
func SDSCLikeParams() WorkloadParams { return workload.SDSCLike() }

// GenerateWorkload produces a synthetic CWF workload.
func GenerateWorkload(p WorkloadParams) (*Workload, error) { return workload.Generate(p) }

// ParseCWF reads a Cloud Workload Format stream (plain SWF is accepted).
func ParseCWF(r io.Reader) (*Workload, error) { return cwf.Parse(r) }

// WriteCWF emits a workload as CWF text.
func WriteCWF(w io.Writer, wl *Workload) error { return cwf.Write(w, wl) }

// ParseSWF reads a Standard Workload Format archive log and wraps it as a
// (batch-only, non-elastic) workload.
func ParseSWF(r io.Reader) (*Workload, error) {
	log, err := swf.Parse(r)
	if err != nil {
		return nil, err
	}
	return cwf.FromSWF(log), nil
}

// JobSpec describes one job for BuildWorkload.
type JobSpec struct {
	// ID must be unique and positive.
	ID int
	// Size is the processor demand (quantized up to the machine unit when
	// simulated).
	Size int
	// Duration is the user-estimated execution time in seconds.
	Duration int64
	// Arrival is the submit time in seconds.
	Arrival int64
	// RequestedStart, when >= Arrival, makes this a dedicated/interactive
	// job with a rigid start time; use -1 (or any negative) for batch jobs.
	RequestedStart int64
	// MinProcs and MaxProcs, when MaxProcs > 0, declare the job malleable:
	// with Config.Malleable the scheduler may resize it at runtime anywhere
	// inside [MinProcs, MaxProcs] (work-conserving), and a node-group
	// failure shrinks it onto its survivors instead of killing it. Leave
	// both zero for a rigid job.
	MinProcs, MaxProcs int
}

// CommandSpec describes one Elastic Control Command for BuildWorkload.
type CommandSpec struct {
	JobID int
	// Issue is when the user issues the command.
	Issue int64
	// Type is "ET", "RT", "EP" or "RP".
	Type string
	// Amount is seconds (ET/RT) or processors (EP/RP).
	Amount int64
}

// BuildWorkload constructs a workload programmatically, for scenarios not
// covered by the synthetic generator or an archive trace.
func BuildWorkload(jobs []JobSpec, cmds []CommandSpec) (*Workload, error) {
	w := &cwf.Workload{}
	for _, s := range jobs {
		j := &job.Job{
			ID: s.ID, Size: s.Size, Dur: s.Duration, Arrival: s.Arrival,
			ReqStart: -1, Class: job.Batch,
		}
		if s.RequestedStart >= 0 {
			j.Class = job.Dedicated
			j.ReqStart = s.RequestedStart
		}
		if s.MaxProcs > 0 {
			j.MinProcs, j.MaxProcs = s.MinProcs, s.MaxProcs
		}
		w.Jobs = append(w.Jobs, j)
	}
	for _, c := range cmds {
		t, err := cwf.ParseReqType(c.Type)
		if err != nil {
			return nil, err
		}
		w.Commands = append(w.Commands, cwf.Command{JobID: c.JobID, Issue: c.Issue, Type: t, Amount: c.Amount})
	}
	w.Sort()
	return w, nil
}

// Options configures a run: the engine's Config plus the parameters of
// the named algorithms.
type Options struct {
	// Config is the run configuration: machine geometry (zero M and Unit
	// default to the paper's 320 processors in groups of 32), allocation
	// policy, fault injection, malleability, and an Observer such as a
	// NewTrace recorder. Scheduler, ProcessECC and Prevalidated belong to
	// the facade and stay unset (ErrTemplateScheduler, ErrTemplateOwned).
	Config Config
	// Cs is the maximum skip count for Delayed-LOS/Hybrid-LOS (0 = default).
	Cs int
	// Lookahead bounds the DP window (0 = the LOS paper's 50).
	Lookahead int
}

// ErrTemplateScheduler rejects Options whose Config carries a scheduler:
// the algorithm name (or SimulateWith's argument) supplies the policy.
// ErrTemplateObserver rejects an Observer on a SimulateSharded run, and
// ErrTemplateOwned a set Config.ProcessECC or Config.Prevalidated.
var (
	ErrTemplateScheduler = engine.ErrTemplateScheduler
	ErrTemplateObserver  = engine.ErrTemplateObserver
	ErrTemplateOwned     = engine.ErrTemplateOwned
)

// AlgorithmNames lists every algorithm accepted by Simulate: the paper's
// Table III (EASY/LOS/Delayed-LOS/Hybrid-LOS and their -D/-E/-DE variants)
// plus FCFS, SJF, LJF, CONS and Adaptive.
func AlgorithmNames() []string { return experiment.Names() }

// Simulate runs the workload under the named algorithm and returns the
// measured result. -E variants process the workload's elastic control
// commands; others ignore them (counted in Result.DroppedECC).
func Simulate(w *Workload, algorithm string, opt Options) (*Result, error) {
	algo, err := experiment.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	return SimulateWith(w, algo.New(opt.point()), algo.ECC, opt)
}

// point carries the policy parameters of Options to the algorithm
// registry's constructors.
func (opt Options) point() experiment.Point {
	return experiment.Point{Cs: opt.Cs, Lookahead: opt.Lookahead}
}

// engineConfig completes Options into one run's engine configuration:
// the paper's 320-processor machine in groups of 32 unless set, plus the
// run's scheduler and ECC processing.
func engineConfig(opt Options, s Scheduler, processECC bool) (engine.Config, error) {
	cfg := opt.Config
	switch {
	case cfg.Scheduler != nil:
		return cfg, ErrTemplateScheduler
	case cfg.ProcessECC || cfg.Prevalidated:
		return cfg, fmt.Errorf("%w: the algorithm sets ProcessECC and every workload is validated", ErrTemplateOwned)
	}
	if cfg.M == 0 {
		cfg.M = 320
	}
	if cfg.Unit == 0 {
		cfg.Unit = 32
	}
	cfg.Scheduler, cfg.ProcessECC = s, processECC
	return cfg, nil
}

// ShardedOptions configures SimulateSharded beyond the per-cluster Options.
type ShardedOptions struct {
	// Clusters is the number of parallel cluster simulations (the global
	// machine is Clusters × M processors). Must be at least 1.
	Clusters int
	// Route names the routing policy splitting submissions over clusters:
	// "roundrobin" (the default for ""), "least-work", "best-fit", or
	// "feedback", which needs Epoch > 0. See RoutePolicies. Any policy but
	// round-robin needs Clusters > 1.
	Route string
	// Epoch is the barrier interval, in sim-seconds, of the dispatcher's
	// deterministic epoch protocol: with stealing or the "feedback" route,
	// clusters step to shared virtual-time barriers every Epoch sim-seconds
	// and exchange compact queue digests there. Required by Steal,
	// Affinity, and the "feedback" route. A static route with stealing off
	// needs no barrier and runs the same at any Epoch. Epoch, Steal, and
	// Affinity all need Clusters > 1.
	Epoch int64
	// Steal lets idle clusters pull queued jobs from backlogged ones at
	// each barrier, commands following their job.
	Steal bool
	// Affinity, when positive, pins every Affinity-th submission (job IDs
	// divisible by Affinity) to a home cluster derived from its ID;
	// routing honors the pin and stealing never violates it.
	Affinity int
}

// RoutePolicies lists the routing-policy names ShardedOptions.Route
// accepts, sorted; "feedback" needs ShardedOptions.Epoch > 0.
func RoutePolicies() []string { return dispatch.Policies() }

// ShardedResult is the merged outcome of a SimulateSharded run; see
// dispatch.Result for the merge semantics.
type ShardedResult = dispatch.Result

// SimulateSharded runs the workload across N parallel per-cluster
// simulations behind a global dispatcher — the two-level scale-out
// configuration. sh.Route picks the dispatch policy (round-robin by
// default; least-work and best-fit are load- and size-aware). opt
// configures each cluster exactly as Simulate would (M is the per-cluster
// machine size; an Observer is rejected with ErrTemplateObserver: placement
// events from parallel clusters have no deterministic interleaving).
// Clusters step on GOMAXPROCS workers; results are deterministic for a
// given workload, cluster count and policy, independent of the worker count.
func SimulateSharded(w *Workload, algorithm string, opt Options, sh ShardedOptions) (*ShardedResult, error) {
	algo, err := experiment.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	cfg, err := engineConfig(opt, nil, algo.ECC)
	if err != nil {
		return nil, err
	}
	return dispatch.Run(w, dispatch.Config{
		Clusters:     sh.Clusters,
		Route:        sh.Route,
		Epoch:        sh.Epoch,
		Steal:        sh.Steal,
		Affinity:     sh.Affinity,
		Engine:       cfg,
		NewScheduler: func() Scheduler { return algo.New(opt.point()) },
	})
}

// NewSession builds a live simulation under the named algorithm, without
// admitting any work yet. Feed it a workload with Load, or individual jobs
// and commands with Inject/InjectCommand, and drive it with Step, RunUntil
// or Run; Snapshot captures its complete state at any point. Simulate is
// the one-shot composition of NewSession + Load + Run + Result.
func NewSession(algorithm string, opt Options) (*Session, error) {
	algo, err := experiment.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	cfg, err := engineConfig(opt, algo.New(opt.point()), algo.ECC)
	if err != nil {
		return nil, err
	}
	return engine.New(cfg)
}

// ResumeSession reads a snapshot written by (*SessionSnapshot).Encode and
// reconstructs the captured session: machine geometry and feature flags
// come from the snapshot, the scheduling policy is rebuilt by the captured
// algorithm name (opt.Cs and opt.Lookahead parameterize it). Of opt.Config
// only Paranoid and Observer apply; the snapshot pins every other setting.
// The returned session continues exactly where the captured one stood.
func ResumeSession(r io.Reader, opt Options) (*Session, error) {
	sn, err := DecodeSessionSnapshot(r)
	if err != nil {
		return nil, err
	}
	return ResumeSnapshot(sn, opt)
}

// DecodeSessionSnapshot reads a snapshot previously written by
// (*SessionSnapshot).Encode, without restoring it — for inspecting the
// captured algorithm, clock, or job states before resuming.
func DecodeSessionSnapshot(r io.Reader) (*SessionSnapshot, error) {
	return engine.DecodeSnapshot(r)
}

// ResumeSnapshot restores an already-decoded snapshot; see ResumeSession.
func ResumeSnapshot(sn *SessionSnapshot, opt Options) (*Session, error) {
	algo, err := experiment.ByName(sn.Scheduler)
	if err != nil {
		return nil, err
	}
	cfg, err := sn.Config()
	if err != nil {
		return nil, err
	}
	cfg.Scheduler = algo.New(opt.point())
	cfg.Paranoid, cfg.Observer = opt.Config.Paranoid, opt.Config.Observer
	s, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(sn); err != nil {
		return nil, err
	}
	return s, nil
}

// SimulateWith runs the workload under a caller-provided policy
// implementation (anything satisfying the Scheduler interface), for
// experimenting with custom scheduling ideas against the same engine,
// workloads and metrics as the built-in algorithms. processECC attaches
// the Elastic Control Command processor (the policy's -E behaviour).
func SimulateWith(w *Workload, s Scheduler, processECC bool, opt Options) (*Result, error) {
	cfg, err := engineConfig(opt, s, processECC)
	if err != nil {
		return nil, err
	}
	return engine.Run(w, cfg)
}

// NewScheduler constructs a named policy directly (for use with custom
// engines or inspection). The boolean reports whether the name denotes an
// -E variant that expects an ECC processor.
func NewScheduler(algorithm string, cs int) (Scheduler, bool, error) {
	algo, err := experiment.ByName(algorithm)
	if err != nil {
		return nil, false, err
	}
	return algo.New(experiment.Point{Cs: cs}), algo.ECC, nil
}

// NewDelayedLOS returns the paper's Delayed-LOS (Algorithm 1) with maximum
// skip count cs.
func NewDelayedLOS(cs int) Scheduler { return core.NewDelayedLOS(cs) }

// NewHybridLOS returns the paper's Hybrid-LOS (Algorithm 2) with maximum
// skip count cs.
func NewHybridLOS(cs int) Scheduler { return core.NewHybridLOS(cs) }

// CalibrateCs empirically finds the maximum skip count minimizing
// Delayed-LOS's mean waiting time for a workload configuration — the
// calibration the paper performs before each load sweep. csMax <= 0 sweeps
// 1..20; empty seeds use the default three.
func CalibrateCs(params WorkloadParams, csMax int, seeds []int64) (int, error) {
	best, _, err := experiment.CalibrateCs(params, csMax, seeds, 0)
	return best, err
}

// Experiments returns the full evaluation suite: Figures 1 and 5-11 with
// their improvement tables (Tables IV-VII), plus the extension studies.
func Experiments() []*Experiment { return experiment.All() }

// ExperimentByID resolves one experiment ("fig7", "table5", "lookahead"...).
func ExperimentByID(id string) (*Experiment, error) { return experiment.ByID(id) }
