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
func validateSharded(clusters int, so sweepOpts, resuming bool) error {
	sh := dispatch.Config{Clusters: clusters, Route: so.route, Epoch: so.epoch, Steal: so.steal, Affinity: so.affinity}
	if err := sh.ValidateSharding(); err != nil {
		return err
	}
	if clusters <= 1 {
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
	var (
		algosFlag = flag.String("algos", "EASY,LOS,Delayed-LOS", "comma-separated algorithm names")
		m         = flag.Int("m", 0, "machine size in processors, per cluster with -clusters (0 = from the trace's MaxNodes header, else 320)")
		clusters  = flag.Int("clusters", 1, "parallel cluster simulations behind a global dispatcher (global machine = clusters x m)")
		routeF    = flag.String("route", "roundrobin", "sharded dispatch policy: roundrobin, least-work, best-fit, or feedback (feedback needs -epoch)")
		epochF    = flag.Int64("epoch", 0, "epoch length in sim seconds for the dispatcher's barrier-synchronized protocol, needed by -steal, -affinity and -route feedback (with -clusters > 1)")
		stealF    = flag.Bool("steal", false, "let idle clusters steal queued jobs at each epoch barrier (needs -epoch)")
		affinityF = flag.Int("affinity", 0, "pin every Nth submission to a home cluster that routing and stealing respect (needs -epoch)")
		unit      = flag.Int("unit", 0, "allocation quantum (0 = gcd of machine size and job sizes)")
		cs        = flag.Int("cs", 0, "maximum skip count C_s (0 = default)")
		lookahead = flag.Int("lookahead", 0, "DP window bound (0 = default 50)")
		maxECC    = flag.Int("max-ecc", 0, "max ECCs per job (0 = unlimited)")
		list      = flag.Bool("list", false, "list algorithm names and exit")
		gantt     = flag.String("gantt", "", "write a schedule Gantt chart of the FIRST algorithm (.svg file, or '-' for ASCII on stdout)")
		jobsOut   = flag.String("jobs", "", "write per-job placement records of the FIRST algorithm as TSV ('-' for stdout)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		until     = flag.Int64("until", -1, "stop after the last event at or before this time and report partial metrics (-1 = run to completion)")
		checkFile = flag.String("checkpoint", "", "write the stopped session's snapshot to this file (single algorithm only)")
		resumeF   = flag.String("resume", "", "resume from a snapshot file instead of reading a workload")

		mtbf       = flag.Float64("mtbf", 0, "per-node-group mean time between failures in s (0 = fault injection off)")
		mttr       = flag.Float64("mttr", 0, "per-node-group mean time to repair in s (with -mtbf)")
		faultSeed  = flag.Int64("fault-seed", 1, "fault trace sampling seed (with -mtbf)")
		faultFile  = flag.String("fault-trace", "", "scripted fault trace file (\"<time> fail|repair <groups>\" lines; exclusive with -mtbf)")
		retryMode  = flag.String("retry", "requeue", "policy for batch jobs killed by a failure: requeue or drop")
		restart    = flag.String("restart", "full", "runtime a requeued job restarts with: full or remaining")
		maxRetries = flag.Int("max-retries", 0, "requeues per job before it is dropped (0 = unlimited)")
		backoff    = flag.Int64("retry-backoff", 0, "delay in s before a killed job is resubmitted")
		ckptPolicy = flag.String("ckpt-policy", "none", "checkpoint policy for running batch jobs: none, periodic, on-resize or daly (kills then restart from the last checkpoint; with -mtbf/-fault-trace)")
		ckptIvl    = flag.Int64("ckpt-interval", 0, "periodic checkpoint interval in s (with -ckpt-policy periodic)")
		ckptCost   = flag.Int64("ckpt-cost", 0, "charge in s per checkpoint and per restart-from-checkpoint (with -ckpt-policy)")

		malleable  = flag.Bool("malleable", false, "enable work-conserving runtime resizing (use -M algorithm variants for scheduler-initiated shrink/expand)")
		resizeOvhd = flag.Int64("resize-overhead", 0, "reconfiguration penalty in s charged per resize (with -malleable)")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(es.AlgorithmNames(), "\n"))
		return
	}

	mv := *m
	so := sweepOpts{
		gantt: *gantt, jobsOut: *jobsOut, until: *until, checkFile: *checkFile,
		clusters: *clusters, route: *routeF,
		epoch: *epochF, steal: *stealF, affinity: *affinityF,
	}
	if err := validateSharded(*clusters, so, *resumeF != ""); err != nil {
		fatal(err)
	}

	if *resumeF != "" {
		if err := resumeRun(*resumeF, *until, *checkFile, *cs, *lookahead); err != nil {
			fatal(err)
		}
		return
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "simrun:", err)
		}
	}()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	w, err := es.ParseCWF(in)
	if err != nil {
		fatal(err)
	}
	if mv == 0 {
		if declared := w.MaxNodes(); declared > 0 {
			mv = declared
			fmt.Fprintf(os.Stderr, "simrun: machine size %d from trace header\n", mv)
		} else {
			mv = 320
		}
	}
	if *unit == 0 {
		*unit = autoUnit(w, mv)
	}
	if *clusters > 1 {
		fmt.Printf("workload: %d jobs (%d dedicated), %d ECCs (machine %d x unit %d, %d clusters via %s, global %d)\n",
			len(w.Jobs), w.NumDedicated(), len(w.Commands), mv, *unit, *clusters, *routeF, mv**clusters)
	} else {
		fmt.Printf("workload: %d jobs (%d dedicated), %d ECCs, offered load %.3f (machine %d x unit %d)\n",
			len(w.Jobs), w.NumDedicated(), len(w.Commands), w.Load(mv), mv, *unit)
	}

	algos := strings.Split(*algosFlag, ",")
	if *checkFile != "" && len(algos) > 1 {
		fatal(fmt.Errorf("-checkpoint requires a single algorithm, got %d", len(algos)))
	}

	fc, err := faultConfig(*mtbf, *mttr, *faultSeed, *faultFile, *retryMode, *restart, *maxRetries, *backoff,
		*ckptPolicy, *ckptIvl, *ckptCost)
	if err != nil {
		fatal(err)
	}
	opt := es.Options{
		M: mv, Unit: *unit, Cs: *cs, Lookahead: *lookahead, MaxECCPerJob: *maxECC,
		Faults: fc, Malleable: *malleable, ResizeOverhead: *resizeOvhd,
	}
	if err := runSweep(w, algos, opt, os.Stdout, so); err != nil {
		fatal(err)
	}
}

// sweepOpts bundles the rendering, session-control and sharding knobs of
// one sweep.
type sweepOpts struct {
	gantt, jobsOut string
	until          int64
	checkFile      string
	// clusters > 1 dispatches each run across parallel cluster simulations;
	// route names the dispatch policy ("" = roundrobin). epoch > 0 switches
	// to the barrier-synchronized protocol; steal and affinity select its
	// exchange features.
	clusters int
	route    string
	epoch    int64
	steal    bool
	affinity int
}

// runSweep runs every algorithm in order, writing one result row per
// completed run. A failing run aborts the sweep, but the rows already
// completed are flushed first: a mid-sweep abort keeps its partial results.
func runSweep(w *es.Workload, algos []string, opt es.Options, out io.Writer, so sweepOpts) error {
	faulty := opt.Faults != nil
	ckpt := faulty && opt.Faults.Checkpoint != es.CheckpointNone
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, resultHeader(faulty, ckpt, opt.Malleable))
	var sweepErr error
	for i, name := range algos {
		name = strings.TrimSpace(name)
		aopt := opt
		var rec *es.Trace
		if (so.gantt != "" || so.jobsOut != "") && i == 0 {
			rec = es.NewTrace(opt.M, opt.Unit)
			aopt.Trace = rec
		}
		if so.clusters > 1 {
			sres, err := es.SimulateSharded(w, name, aopt, es.ShardedOptions{
				Clusters: so.clusters, Route: so.route,
				Epoch: so.epoch, Steal: so.steal, Affinity: so.affinity,
			})
			if err != nil {
				sweepErr = fmt.Errorf("%s: %w", name, err)
				break
			}
			fmt.Fprint(tw, summaryRow(name, sres.Merged, sres.ECC.Applied, faulty, ckpt, opt.Malleable))
			continue
		}
		var res *es.Result
		var err error
		if so.until >= 0 || so.checkFile != "" {
			res, err = runCapped(w, name, aopt, so.until, so.checkFile)
		} else {
			res, err = es.Simulate(w, name, aopt)
		}
		if err != nil {
			sweepErr = fmt.Errorf("%s: %w", name, err)
			break
		}
		fmt.Fprint(tw, resultRow(name, res, faulty, ckpt, opt.Malleable))
		if rec != nil && so.gantt != "" {
			if so.gantt == "-" {
				fmt.Fprintln(out, rec.ASCII(100))
			} else if err := os.WriteFile(so.gantt, []byte(rec.SVG(1000, 420)), 0o644); err != nil {
				sweepErr = err
				break
			} else {
				fmt.Fprintf(os.Stderr, "simrun: wrote %s\n", so.gantt)
			}
		}
		if rec != nil && so.jobsOut != "" {
			if err := writeJobs(so.jobsOut, rec); err != nil {
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

// faultConfig assembles Options.Faults from the fault flags; nil when fault
// injection is off. Checkpoint knobs are validated up front with the fault
// package's typed errors (errors.Is-testable) rather than per-algorithm at
// engine start.
func faultConfig(mtbf, mttr float64, seed int64, traceFile, retry, restart string, maxRetries int, backoff int64,
	ckptPolicy string, ckptIvl, ckptCost int64) (*es.FaultConfig, error) {
	ckpt, err := es.ParseCheckpointPolicy(ckptPolicy)
	if err != nil {
		return nil, err
	}
	if mtbf <= 0 && traceFile == "" {
		if ckpt != es.CheckpointNone || ckptIvl != 0 || ckptCost != 0 {
			return nil, ErrCheckpointNeedsFaults
		}
		return nil, nil
	}
	if err := fault.ValidateCheckpoint(ckpt, ckptIvl, ckptCost, mtbf); err != nil {
		return nil, err
	}
	fc := &es.FaultConfig{MTBF: mtbf, MTTR: mttr, Seed: seed}
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		t, err := es.ParseFaultTrace(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", traceFile, err)
		}
		fc.Trace = t
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
	fc.Retry.MaxRetries = maxRetries
	fc.Retry.Backoff = backoff
	fc.Checkpoint = ckpt
	fc.CheckpointInterval = ckptIvl
	fc.CheckpointCost = ckptCost
	return fc, nil
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

// resultRow renders one algorithm's tabwriter line.
func resultRow(name string, res *es.Result, faulty, ckpt, malleable bool) string {
	return summaryRow(name, res.Summary, res.ECC.Applied, faulty, ckpt, malleable)
}

// summaryRow renders a tabwriter line from any summary — a single run's or
// a sharded run's merged view.
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
func runCapped(w *es.Workload, name string, opt es.Options, until int64, checkFile string) (*es.Result, error) {
	sess, err := es.NewSession(name, opt)
	if err != nil {
		return nil, err
	}
	if err := sess.Load(w); err != nil {
		return nil, err
	}
	if err := drive(sess, until, checkFile); err != nil {
		return nil, err
	}
	return sess.Result()
}

// drive advances a session to the cap (or completion) and writes the
// checkpoint if requested.
func drive(sess *es.Session, until int64, checkFile string) error {
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
	fmt.Fprintf(os.Stderr, "simrun: wrote %s (t=%d, %d events pending)\n", checkFile, sess.Now(), sess.Pending())
	return nil
}

// resumeRun continues a checkpointed session: the snapshot is
// self-contained, so no workload input is read.
func resumeRun(path string, until int64, checkFile string, cs, lookahead int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sn, err := es.DecodeSessionSnapshot(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	sess, err := es.ResumeSnapshot(sn, es.Options{Cs: cs, Lookahead: lookahead})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "simrun: resumed %s under %s at t=%d (%d jobs, %d events pending)\n",
		path, sn.Scheduler, sess.Now(), len(sn.Jobs), sess.Pending())
	if err := drive(sess, until, checkFile); err != nil {
		return fmt.Errorf("%s: %w", sn.Scheduler, err)
	}
	res, err := sess.Result()
	if err != nil {
		return fmt.Errorf("%s: %w", sn.Scheduler, err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	faulty := sn.Retry != nil
	ckpt := sn.Checkpoint != ""
	fmt.Fprintln(tw, resultHeader(faulty, ckpt, sn.Malleable))
	fmt.Fprint(tw, resultRow(sn.Scheduler, res, faulty, ckpt, sn.Malleable))
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

// writeJobs dumps per-job placement records as TSV.
func writeJobs(path string, rec *es.Trace) error {
	var b strings.Builder
	b.WriteString("job\tclass\tsize\tarrival\treq_start\tstart\tend\twait\n")
	for _, sp := range rec.Spans() {
		fmt.Fprintf(&b, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			sp.JobID, sp.Class, sp.Size, sp.Arrival, sp.ReqStart, sp.Start, sp.End, sp.Wait())
	}
	if path == "-" {
		_, err := io.WriteString(os.Stdout, b.String())
		return err
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simrun: wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrun:", err)
	os.Exit(1)
}
