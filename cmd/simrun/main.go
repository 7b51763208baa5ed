// Command simrun replays a CWF (or plain SWF) workload under one or more
// scheduling algorithms and reports the paper's metrics.
//
// Usage:
//
//	simrun -algos EASY,LOS,Delayed-LOS -m 320 -unit 32 trace.cwf
//	cwfgen -ps 0.2 -load 0.9 | simrun -algos Delayed-LOS -cs 8
//
// With no file argument the workload is read from stdin.
//
// Long runs can be split across invocations: -until stops the simulation
// after the last event at or before the given time (reporting partial
// metrics), -checkpoint writes the stopped session's complete state to a
// file, and -resume continues from such a file (no workload input needed —
// the snapshot is self-contained, including the algorithm):
//
//	simrun -algos Delayed-LOS -until 50000 -checkpoint part1.snap trace.cwf
//	simrun -resume part1.snap
//
// Scale-out runs shard the workload across parallel cluster simulations:
// -clusters N dispatches the jobs over N clusters of -m processors each
// (a global machine of N×m), reporting the merged metrics.
// -route picks the dispatch policy — roundrobin (default), least-work
// (balance queued processor-seconds), or best-fit (size-aware bin
// packing). Results are deterministic for a given workload, cluster count
// and policy. Gantt rendering and session control (-gantt, -jobs, -until,
// -checkpoint, -resume) need a single cluster:
//
//	cwfgen -n 2000 | simrun -algos Delayed-LOS -m 320 -clusters 4 -route least-work
//
// -epoch E switches the dispatcher to its barrier-synchronized protocol
// (clusters exchange queue digests every E sim-seconds), unlocking the
// dynamic features: -steal lets idle clusters pull queued jobs from
// backlogged ones at each barrier, -route feedback routes arrivals by the
// last barrier's observed loads, and -affinity K pins every Kth submission
// to a home cluster that routing and stealing respect. Dynamic results stay
// deterministic and worker-count independent:
//
//	cwfgen -n 2000 | simrun -algos Delayed-LOS -m 320 -clusters 4 -epoch 5000 -steal -route feedback
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	es "elastisched"
	"elastisched/internal/dispatch"
	"elastisched/internal/fault"
	"elastisched/internal/prof"
)

// Typed flag-combination errors, testable with errors.Is.
var (
	// ErrShardedRender rejects per-placement rendering of a sharded run:
	// parallel clusters have no single schedule to draw.
	ErrShardedRender = errors.New("simrun: -gantt and -jobs require -clusters 1")
	// ErrShardedSession rejects session control of a sharded run: capping,
	// checkpointing and resuming operate on one session.
	ErrShardedSession = errors.New("simrun: -until, -checkpoint and -resume require -clusters 1")
	// ErrCheckpointNeedsFaults rejects checkpoint knobs without fault
	// injection to restart from.
	ErrCheckpointNeedsFaults = errors.New("simrun: -ckpt-policy, -ckpt-interval and -ckpt-cost need -mtbf or -fault-trace")
)

// validateSharded applies the dispatcher's rule for the sharding knobs
// (-route, -epoch, -steal, -affinity; dispatch.ErrNeedsClusters on a single
// cluster), then rejects flag combinations that need a single cluster.
func validateSharded(so sweepOpts, resuming bool) error {
	sh := dispatch.Config{Clusters: so.Clusters, Route: so.Route, Epoch: so.Epoch, Steal: so.Steal, Affinity: so.Affinity}
	if err := sh.ValidateSharding(); err != nil {
		return err
	}
	if so.Clusters <= 1 {
		return nil
	}
	if so.gantt != "" || so.jobsOut != "" {
		return ErrShardedRender
	}
	if so.until >= 0 || so.checkFile != "" || resuming {
		return ErrShardedSession
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2) // the flag set has printed the problem and the usage
		}
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set rejected.
var errUsage = errors.New("simrun: bad command line")

// run is the whole command: it parses args, reads the workload from the
// named file or stdin, and writes the report to stdout and diagnostics to
// stderr.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt es.Options
	var so sweepOpts
	fs.IntVar(&opt.Config.M, "m", 0, "machine size in processors, per cluster with -clusters (0 = from the trace's MaxNodes header, else 320)")
	fs.IntVar(&opt.Config.Unit, "unit", 0, "allocation quantum (0 = gcd of machine size and job sizes)")
	fs.IntVar(&opt.Cs, "cs", 0, "maximum skip count C_s (0 = default)")
	fs.IntVar(&opt.Lookahead, "lookahead", 0, "DP window bound (0 = default 50)")
	fs.IntVar(&opt.Config.MaxECCPerJob, "max-ecc", 0, "max ECCs per job (0 = unlimited)")
	fs.BoolVar(&opt.Config.Malleable, "malleable", false, "enable work-conserving runtime resizing (use -M algorithm variants for scheduler-initiated shrink/expand)")
	fs.Int64Var(&opt.Config.ResizeOverhead, "resize-overhead", 0, "reconfiguration penalty in s charged per resize (with -malleable)")
	fs.IntVar(&so.Clusters, "clusters", 1, "parallel cluster simulations behind a global dispatcher (global machine = clusters x m)")
	fs.StringVar(&so.Route, "route", "roundrobin", "sharded dispatch policy: roundrobin, least-work, best-fit, or feedback (feedback needs -epoch)")
	fs.Int64Var(&so.Epoch, "epoch", 0, "epoch length in sim seconds for the dispatcher's barrier-synchronized protocol, needed by -steal, -affinity and -route feedback (with -clusters > 1)")
	fs.BoolVar(&so.Steal, "steal", false, "let idle clusters steal queued jobs at each epoch barrier (needs -epoch)")
	fs.IntVar(&so.Affinity, "affinity", 0, "pin every Nth submission to a home cluster that routing and stealing respect (needs -epoch)")
	fs.StringVar(&so.gantt, "gantt", "", "write a schedule Gantt chart of the FIRST algorithm (.svg file, or '-' for ASCII on stdout)")
	fs.StringVar(&so.jobsOut, "jobs", "", "write per-job placement records of the FIRST algorithm as TSV ('-' for stdout)")
	fs.Int64Var(&so.until, "until", -1, "stop after the last event at or before this time and report partial metrics (-1 = run to completion)")
	fs.StringVar(&so.checkFile, "checkpoint", "", "write the stopped session's snapshot to this file (single algorithm only)")
	var fc es.FaultConfig
	fs.Float64Var(&fc.MTBF, "mtbf", 0, "per-node-group mean time between failures in s (0 = fault injection off)")
	fs.Float64Var(&fc.MTTR, "mttr", 0, "per-node-group mean time to repair in s (with -mtbf)")
	fs.Int64Var(&fc.Seed, "fault-seed", 1, "fault trace sampling seed (with -mtbf)")
	fs.IntVar(&fc.Retry.MaxRetries, "max-retries", 0, "requeues per job before it is dropped (0 = unlimited)")
	fs.Int64Var(&fc.Retry.Backoff, "retry-backoff", 0, "delay in s before a killed job is resubmitted")
	fs.Int64Var(&fc.CheckpointInterval, "ckpt-interval", 0, "periodic checkpoint interval in s (with -ckpt-policy periodic)")
	fs.Int64Var(&fc.CheckpointCost, "ckpt-cost", 0, "charge in s per checkpoint and per restart-from-checkpoint (with -ckpt-policy)")
	var (
		algosFlag = fs.String("algos", "EASY,LOS,Delayed-LOS", "comma-separated algorithm names")
		list      = fs.Bool("list", false, "list algorithm names and exit")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		resumeF   = fs.String("resume", "", "resume from a snapshot file instead of reading a workload")

		faultFile  = fs.String("fault-trace", "", "scripted fault trace file (\"<time> fail|repair <groups>\" lines; exclusive with -mtbf)")
		retryMode  = fs.String("retry", "requeue", "policy for batch jobs killed by a failure: requeue or drop")
		restart    = fs.String("restart", "full", "runtime a requeued job restarts with: full or remaining")
		ckptPolicy = fs.String("ckpt-policy", "none", "checkpoint policy for running batch jobs: none, periodic, on-resize or daly (kills then restart from the last checkpoint; with -mtbf/-fault-trace)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(es.AlgorithmNames(), "\n"))
		return nil
	}
	if err := validateSharded(so, *resumeF != ""); err != nil {
		return err
	}
	if *resumeF != "" {
		return resumeRun(*resumeF, opt, so, stdout, stderr)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "simrun:", err)
		}
	}()

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	w, err := es.ParseCWF(in)
	if err != nil {
		return err
	}
	if opt.Config.M == 0 {
		if declared := w.MaxNodes(); declared > 0 {
			opt.Config.M = declared
			fmt.Fprintf(stderr, "simrun: machine size %d from trace header\n", opt.Config.M)
		} else {
			opt.Config.M = 320
		}
	}
	if opt.Config.Unit == 0 {
		opt.Config.Unit = autoUnit(w, opt.Config.M)
	}
	if so.Clusters > 1 {
		fmt.Fprintf(stdout, "workload: %d jobs (%d dedicated), %d ECCs (machine %d x unit %d, %d clusters via %s, global %d)\n",
			len(w.Jobs), w.NumDedicated(), len(w.Commands), opt.Config.M, opt.Config.Unit, so.Clusters, so.Route, opt.Config.M*so.Clusters)
	} else {
		fmt.Fprintf(stdout, "workload: %d jobs (%d dedicated), %d ECCs, offered load %.3f (machine %d x unit %d)\n",
			len(w.Jobs), w.NumDedicated(), len(w.Commands), w.Load(opt.Config.M), opt.Config.M, opt.Config.Unit)
	}

	algos := strings.Split(*algosFlag, ",")
	if so.checkFile != "" && len(algos) > 1 {
		return fmt.Errorf("-checkpoint requires a single algorithm, got %d", len(algos))
	}
	if opt.Config.Faults, err = faultConfig(fc, *faultFile, *retryMode, *restart, *ckptPolicy); err != nil {
		return err
	}
	return runSweep(w, algos, opt, stdout, stderr, so)
}

// sweepOpts bundles the rendering, session-control and sharding knobs of
// one sweep.
type sweepOpts struct {
	gantt, jobsOut string
	until          int64
	checkFile      string
	// Clusters > 1 dispatches each run across parallel cluster simulations.
	es.ShardedOptions
}

// runSweep runs every algorithm in order, writing one result row per
// completed run. A failing run aborts the sweep, but the rows already
// completed are flushed first: a mid-sweep abort keeps its partial results.
func runSweep(w *es.Workload, algos []string, opt es.Options, out, errOut io.Writer, so sweepOpts) error {
	faulty := opt.Config.Faults != nil
	ckpt := faulty && opt.Config.Faults.Checkpoint != es.CheckpointNone
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, resultHeader(faulty, ckpt, opt.Config.Malleable))
	var sweepErr error
	for i, name := range algos {
		name = strings.TrimSpace(name)
		aopt := opt
		var rec *es.Trace
		if (so.gantt != "" || so.jobsOut != "") && i == 0 {
			rec = es.NewTrace(opt.Config.M, opt.Config.Unit)
			aopt.Config.Observer = rec
		}
		if so.Clusters > 1 {
			sres, err := es.SimulateSharded(w, name, aopt, so.ShardedOptions)
			if err != nil {
				sweepErr = fmt.Errorf("%s: %w", name, err)
				break
			}
			fmt.Fprint(tw, summaryRow(name, sres.Merged, sres.ECC.Applied, faulty, ckpt, opt.Config.Malleable))
			continue
		}
		var res *es.Result
		var err error
		if so.until >= 0 || so.checkFile != "" {
			res, err = runCapped(w, name, aopt, so.until, so.checkFile, errOut)
		} else {
			res, err = es.Simulate(w, name, aopt)
		}
		if err != nil {
			sweepErr = fmt.Errorf("%s: %w", name, err)
			break
		}
		fmt.Fprint(tw, summaryRow(name, res.Summary, res.ECC.Applied, faulty, ckpt, opt.Config.Malleable))
		if rec != nil && so.gantt != "" {
			if so.gantt == "-" {
				fmt.Fprintln(out, rec.ASCII(100))
			} else if err := os.WriteFile(so.gantt, []byte(rec.SVG(1000, 420)), 0o644); err != nil {
				sweepErr = err
				break
			} else {
				fmt.Fprintf(errOut, "simrun: wrote %s\n", so.gantt)
			}
		}
		if rec != nil && so.jobsOut != "" {
			if err := writeJobs(so.jobsOut, rec, out, errOut); err != nil {
				sweepErr = err
				break
			}
		}
	}
	if err := tw.Flush(); err != nil && sweepErr == nil {
		sweepErr = err
	}
	return sweepErr
}

// faultConfig completes the fault flags bound straight into fc with the
// ones that need parsing, and returns Config.Faults: nil when fault
// injection is off. Checkpoint knobs are validated up front with the fault
// package's typed errors (errors.Is-testable) rather than per-algorithm at
// engine start.
func faultConfig(fc es.FaultConfig, traceFile, retry, restart, ckptPolicy string) (*es.FaultConfig, error) {
	var err error
	if fc.Checkpoint, err = es.ParseCheckpointPolicy(ckptPolicy); err != nil {
		return nil, err
	}
	if fc.MTBF <= 0 && traceFile == "" {
		if fc.Checkpoint != es.CheckpointNone || fc.CheckpointInterval != 0 || fc.CheckpointCost != 0 {
			return nil, ErrCheckpointNeedsFaults
		}
		return nil, nil
	}
	if err := fault.ValidateCheckpoint(fc.Checkpoint, fc.CheckpointInterval, fc.CheckpointCost, fc.MTBF); err != nil {
		return nil, err
	}
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if fc.Trace, err = es.ParseFaultTrace(f); err != nil {
			return nil, fmt.Errorf("%s: %w", traceFile, err)
		}
	}
	switch retry {
	case "requeue":
		fc.Retry.Mode = es.Requeue
	case "drop":
		fc.Retry.Mode = es.Drop
	default:
		return nil, fmt.Errorf("-retry: want requeue or drop, got %q", retry)
	}
	switch restart {
	case "full":
		fc.Retry.Restart = es.FullRuntime
	case "remaining":
		fc.Retry.Restart = es.RemainingRuntime
	default:
		return nil, fmt.Errorf("-restart: want full or remaining, got %q", restart)
	}
	return &fc, nil
}

// resultHeader renders the tabwriter header; fault-injected sweeps carry
// the failure-accounting columns (plus the checkpoint economics when a
// policy is on) and malleable sweeps the resize columns.
func resultHeader(faulty, ckpt, malleable bool) string {
	h := "algorithm\tutil\tmean wait (s)\tmean run (s)\tslowdown\tded on-time\tECCs applied"
	if faulty {
		h += "\tkilled\tretried\tdropped\tdown proc-s"
	}
	if ckpt {
		h += "\tckpts\tckpt proc-s\tlost proc-s"
	}
	if malleable {
		h += "\tresizes\tshrunk proc-s\treconfig s"
	}
	return h
}

// summaryRow renders one algorithm's tabwriter line from any summary — a
// single run's or a sharded run's merged view.
func summaryRow(name string, s es.Summary, eccApplied int, faulty, ckpt, malleable bool) string {
	row := fmt.Sprintf("%s\t%.4f\t%.1f\t%.1f\t%.3f\t%.2f\t%d",
		name, s.Utilization, s.MeanWait, s.MeanRun, s.Slowdown, s.DedicatedOnTime, eccApplied)
	if faulty {
		row += fmt.Sprintf("\t%d\t%d\t%d\t%.0f", s.KilledJobs, s.RetriedJobs, s.DroppedJobs, s.DownProcSeconds)
	}
	if ckpt {
		row += fmt.Sprintf("\t%d\t%.0f\t%.0f", s.CheckpointsTaken, s.CheckpointOverheadSeconds, s.LostWorkSeconds)
	}
	if malleable {
		row += fmt.Sprintf("\t%d\t%.0f\t%.0f", s.SchedulerResizes, s.ShrunkProcSeconds, s.ReconfigOverheadSeconds)
	}
	return row + "\n"
}

// runCapped drives the workload through a session so the run can be capped
// at -until and checkpointed.
func runCapped(w *es.Workload, name string, opt es.Options, until int64, checkFile string, errOut io.Writer) (*es.Result, error) {
	sess, err := es.NewSession(name, opt)
	if err != nil {
		return nil, err
	}
	if err := sess.Load(w); err != nil {
		return nil, err
	}
	if err := drive(sess, until, checkFile, errOut); err != nil {
		return nil, err
	}
	return sess.Result()
}

// drive advances a session to the cap (or completion) and writes the
// checkpoint if requested.
func drive(sess *es.Session, until int64, checkFile string, errOut io.Writer) error {
	var err error
	if until >= 0 {
		err = sess.RunUntil(until)
	} else {
		err = sess.Run()
	}
	if err != nil {
		return err
	}
	if checkFile == "" {
		return nil
	}
	sn, err := sess.Snapshot()
	if err != nil {
		return err
	}
	f, err := os.Create(checkFile)
	if err != nil {
		return err
	}
	if err := sn.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(errOut, "simrun: wrote %s (t=%d, %d events pending)\n", checkFile, sess.Now(), sess.Pending())
	return nil
}

// resumeRun continues a checkpointed session: the snapshot is
// self-contained, so no workload input is read.
func resumeRun(path string, opt es.Options, so sweepOpts, out, errOut io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sn, err := es.DecodeSessionSnapshot(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	sess, err := es.ResumeSnapshot(sn, opt)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(errOut, "simrun: resumed %s under %s at t=%d (%d jobs, %d events pending)\n",
		path, sn.Scheduler, sess.Now(), len(sn.Jobs), sess.Pending())
	if err := drive(sess, so.until, so.checkFile, errOut); err != nil {
		return fmt.Errorf("%s: %w", sn.Scheduler, err)
	}
	res, err := sess.Result()
	if err != nil {
		return fmt.Errorf("%s: %w", sn.Scheduler, err)
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	faulty := sn.Retry != nil
	ckpt := sn.Checkpoint != ""
	fmt.Fprintln(tw, resultHeader(faulty, ckpt, sn.Malleable))
	fmt.Fprint(tw, summaryRow(sn.Scheduler, res.Summary, res.ECC.Applied, faulty, ckpt, sn.Malleable))
	return tw.Flush()
}

// autoUnit derives the allocation quantum as the gcd of the machine size
// and every job size — 32 for BlueGene/P-style traces, 1 for irregular
// archive logs.
func autoUnit(w *es.Workload, m int) int {
	g := m
	for _, j := range w.Jobs {
		g = gcd(g, j.Size)
		if g == 1 {
			break
		}
	}
	if g <= 0 {
		return 1
	}
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// writeJobs dumps per-job placement records as TSV, to out for path "-".
func writeJobs(path string, rec *es.Trace, out, errOut io.Writer) error {
	var b strings.Builder
	b.WriteString("job\tclass\tsize\tarrival\treq_start\tstart\tend\twait\n")
	for _, sp := range rec.Spans() {
		fmt.Fprintf(&b, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			sp.JobID, sp.Class, sp.Size, sp.Arrival, sp.ReqStart, sp.Start, sp.End, sp.Wait())
	}
	if path == "-" {
		_, err := io.WriteString(out, b.String())
		return err
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(errOut, "simrun: wrote %s\n", path)
	return nil
}
