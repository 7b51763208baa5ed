// Command elastibench is the simulator's end-to-end benchmark. It runs one
// of five named workloads through the public entry points a user drives —
// experiment.Sweep.Run, engine sessions stepped instant by instant, and
// dispatch.Run — measures what a user pays per pass (host time per
// simulated job, set-up time, allocation, live heap), checks every output
// against the audit oracle, the partition invariant and a recorded digest,
// and prints each metric by name with its unit. The last line of standard
// output is one JSON object with the result.
//
// Usage:
//
//	elastibench -workload deep-queue -seed 1 -seconds 10 -trace 0
//
// -trace 1 adds a traced run that times every layer from outside, through
// decorators on the calls into it, and reports per-layer metrics instead of
// the end-to-end ones; its spans are written to -spans. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed golden.json records digests for.
const defaultSeed = 1

// minPasses is the floor on timed passes, whatever -seconds allows: the
// quartiles need at least this many samples.
const minPasses = 5

//go:embed golden.json
var goldenJSON []byte

// goldenEntry is one workload's recorded outcome at the default seed.
type goldenEntry struct {
	Digest   string    `json:"digest"`
	Outcomes []outcome `json:"outcomes"`
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, per pass.
var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports. Times and counts are per
// pass; the instant latencies come from the traced run's untraced passes.
var perLayer = []metricDef{
	{"sched.schedule_s", "s"},
	{"sched.self_s", "s"},
	{"sched.cycles", "count"},
	{"sched.useful_ratio", "ratio"},
	{"sched.delta_s", "s"},
	{"sched.deltas", "count"},
	{"sched.propose_s", "s"},
	{"sched.proposals", "count"},
	{"sched.resize_apply_ratio", "ratio"},
	{"engine.start_s", "s"},
	{"engine.starts", "count"},
	{"engine.start_refused", "count"},
	{"engine.step_s", "s"},
	{"engine.instants", "count"},
	{"engine.events", "count"},
	{"engine.self_s", "s"},
	{"engine.load_s", "s"},
	{"engine.instant_us_p50", "us"},
	{"engine.instant_us_p99", "us"},
	{"metrics.summary_s", "s"},
	{"workload.generate_s", "s"},
	{"cwf.validate_s", "s"},
	{"experiment.sweep_s", "s"},
	{"experiment.cache_hit_ratio", "ratio"},
	{"experiment.rest_s", "s"},
	{"dispatch.run_s", "s"},
	{"dispatch.epochs", "count"},
	{"dispatch.steals", "count"},
	{"dispatch.steals_per_epoch", "ratio"},
	{"dispatch.rest_s", "s"},
	{"fault.kills", "count"},
	{"fault.checkpoints", "count"},
	{"fault.lost_work_proc_s", "proc-s"},
	{"ecc.commands", "count"},
	{"ecc.applied_ratio", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("elastibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "timed seconds per workload")
	traced := fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
	spans := fs.String("spans", "", "span file of the traced run (default .bench_build/elastibench/spans-<workload>.json)")
	writeGolden := fs.String("write-golden", "", "record this run's digests as the default-seed golden file at this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "elastibench: usage: elastibench -workload <name|all> -seed N -seconds S -trace 0|1")
		return 2
	}
	if *writeGolden != "" && *seed != defaultSeed {
		fmt.Fprintf(stderr, "elastibench: -write-golden needs the default seed %d\n", defaultSeed)
		return 2
	}
	defs := workloads
	if *name != "all" {
		d, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "elastibench:", err)
			return 2
		}
		defs = []workloadDef{d}
	}
	golden := map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintln(stderr, "elastibench: golden.json:", err)
		return 1
	}

	result := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		opt := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1}
		if *seed == defaultSeed && *writeGolden == "" {
			opt.want = golden[d.name].Digest
		}
		rep, err := measure(d, opt)
		if err != nil {
			fmt.Fprintf(stderr, "elastibench: %s: %v\n", d.name, err)
			return 1
		}
		for _, f := range rep.failures {
			fmt.Fprintf(stderr, "elastibench: %s: %s\n", d.name, f)
		}
		rep.print(stdout)
		if opt.traced {
			path := *spans
			if path == "" {
				path = ".bench_build/elastibench/spans-" + d.name + ".json"
			}
			if err := rep.writeTrace(path); err != nil {
				fmt.Fprintf(stderr, "elastibench: %s: write spans: %v\n", d.name, err)
				return 1
			}
			fmt.Fprintf(stdout, "# spans written to %s\n", path)
		}
		prefix := ""
		if len(defs) > 1 {
			prefix = d.name + "."
		}
		rep.addTo(&result, prefix)
		golden[d.name] = goldenEntry{Digest: rep.digest, Outcomes: rep.outcomes}
	}
	if *writeGolden != "" && result.Correct {
		if err := writeGoldenFile(*writeGolden, golden); err != nil {
			fmt.Fprintln(stderr, "elastibench:", err)
			return 1
		}
	}
	b, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "elastibench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !result.Correct {
		return 1
	}
	return 0
}

// jsonResult is the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeGoldenFile(path string, golden map[string]goldenEntry) error {
	b, err := json.MarshalIndent(golden, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// options configure one workload's measurement.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	small   bool
	// want is the digest every pass must reproduce; empty means the verify
	// phase's digest is the reference.
	want string
}

// report is one workload's measurement.
type report struct {
	workload string
	opt      options

	attempted, failed int
	failures          []string
	digest            string
	outcomes          []outcome

	// e2e holds one sample per timed untraced pass per end-to-end metric,
	// raw the unscaled throughput and set-up time with the host speed, and
	// wall the passes' set-up plus run time.
	e2e  map[string][]float64
	raw  map[string][]float64
	wall []float64
	// instants holds per-pass Step latency percentiles (µs) and counts.
	instantP50, instantTail, instantN []float64
	tailP                             float64

	// The traced run: per-pass layer metrics, overall and per policy.
	tracer     *tracer
	tracedWall []float64
	layers     map[string][]float64
	policies   map[string]map[string][]float64

	// Step latency buffers, reused across passes.
	lat []time.Duration
	us  []float64
}

// sample is one pass's measurement.
type sample struct {
	setup, run  time.Duration
	alloc, live uint64
	jobs        int
	speed       float64 // host speed during the pass, see hostSpeed
	// instants is the number of Step latencies; p50 and tail their
	// percentiles in µs.
	instants  int
	p50, tail float64
	// layers and policies are a traced pass's per-layer metrics, overall
	// and per policy.
	layers   map[string]float64
	policies map[string]map[string]float64
}

// measure runs one workload: an untimed verify phase with the audit oracle
// or invariants attached, one discarded warm-up pass, then timed passes for
// the configured seconds (at least minPasses). A traced measurement spends
// half the time on untraced passes and half on traced ones.
func measure(d workloadDef, opt options) (*report, error) {
	rep := &report{
		workload: d.name, opt: opt,
		e2e:      map[string][]float64{},
		raw:      map[string][]float64{},
		layers:   map[string][]float64{},
		policies: map[string]map[string][]float64{},
	}
	r := d.build(opt.seed, opt.small)

	if err := r.setup(nil); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var out passOut
	rep.settle("verify", &out, r.check(&out))
	r.reset()

	if _, err := rep.pass(r, nil); err != nil {
		return nil, err
	}

	budget := opt.seconds
	if opt.traced {
		budget /= 2
	}
	for start, i := time.Now(), 0; i < minPasses || time.Since(start) < budget; i++ {
		s, err := rep.pass(r, nil)
		if err != nil {
			return nil, err
		}
		rep.record(s)
	}
	if !opt.traced {
		return rep, nil
	}

	rep.tracer = newTracer()
	for start, i := time.Now(), 0; i < minPasses || time.Since(start) < budget; i++ {
		s, err := rep.pass(r, rep.tracer)
		if err != nil {
			return nil, err
		}
		rep.tracedWall = append(rep.tracedWall, (s.setup+s.run).Seconds()*s.speed)
		for k, v := range s.layers {
			rep.layers[k] = append(rep.layers[k], v)
		}
		for name, m := range s.policies {
			if rep.policies[name] == nil {
				rep.policies[name] = map[string][]float64{}
			}
			for k, v := range m {
				rep.policies[name][k] = append(rep.policies[name][k], v)
			}
		}
	}
	rep.layers["engine.instant_us_p50"] = rep.instantP50
	rep.layers["engine.instant_us_p99"] = rep.instantTail
	rep.layers["bench.trace_overhead"] = []float64{median(rep.tracedWall)/median(rep.wall) - 1}
	return rep, nil
}

// record adds an untraced pass to the end-to-end samples. Times are scaled
// to the recording host's speed (see probe.go); the raw values and the
// speed factor are kept alongside.
func (rep *report) record(s sample) {
	sp := s.speed
	rep.e2e["jobs_per_s"] = append(rep.e2e["jobs_per_s"], float64(s.jobs)/(s.run.Seconds()*sp))
	rep.e2e["setup_s"] = append(rep.e2e["setup_s"], s.setup.Seconds()*sp)
	rep.e2e["alloc_mb"] = append(rep.e2e["alloc_mb"], float64(s.alloc)/1e6)
	rep.e2e["live_heap_mb"] = append(rep.e2e["live_heap_mb"], float64(s.live)/1e6)
	rep.raw["raw_jobs_per_s"] = append(rep.raw["raw_jobs_per_s"], float64(s.jobs)/s.run.Seconds())
	rep.raw["raw_setup_s"] = append(rep.raw["raw_setup_s"], s.setup.Seconds())
	rep.raw["host_speed"] = append(rep.raw["host_speed"], sp)
	rep.wall = append(rep.wall, (s.setup+s.run).Seconds()*sp)
	if s.instants > 0 {
		rep.instantP50 = append(rep.instantP50, s.p50*sp)
		rep.instantTail = append(rep.instantTail, s.tail*sp)
		rep.instantN = append(rep.instantN, float64(s.instants))
	}
}

// pass runs one set-up plus run, measured, between two host-speed probes.
// The garbage collector runs before the timed region, and again after it
// with the pass's inputs and results still reachable, so live_heap_mb is
// the memory the finished simulation holds.
func (rep *report) pass(r runner, tr *tracer) (sample, error) {
	var s sample
	var ms runtime.MemStats
	probeBefore := probe()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc

	out := passOut{lat: rep.lat[:0]}
	pid := tr.begin("pass")
	sid := tr.begin("setup")
	t := time.Now()
	if err := r.setup(tr); err != nil {
		return s, fmt.Errorf("setup: %w", err)
	}
	s.setup = time.Since(t)
	tr.end(sid)
	rid := tr.begin("run")
	t = time.Now()
	err := r.run(tr, &out)
	s.run = time.Since(t)
	tr.end(rid)
	tr.end(pid)

	runtime.ReadMemStats(&ms)
	s.alloc = ms.TotalAlloc - before
	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.live = ms.HeapAlloc
	s.speed = hostSpeed(probeBefore, probe())
	s.jobs = out.jobs

	if tr != nil {
		lt, instants, byPolicy := tr.takePass()
		var total schedAcc
		s.policies = map[string]map[string]float64{}
		for name, a := range byPolicy {
			total.add(a)
			s.policies[name] = schedMetrics(a, s.speed)
		}
		s.layers = layerMetrics(lt, instants, &total, out.counts, s.speed)
		if err == nil && total.cycles != int64(out.counts.cycles) {
			err = fmt.Errorf("decorators saw %d scheduler cycles, the engine reports %d", total.cycles, out.counts.cycles)
		}
	}
	rep.settle("pass", &out, err)
	r.reset()

	rep.lat = out.lat
	if n := len(out.lat); n > 0 {
		us := rep.us[:0]
		for _, d := range out.lat {
			us = append(us, float64(d)/float64(time.Microsecond))
		}
		sort.Float64s(us)
		rep.us = us
		rep.tailP = tailPercentile(n)
		s.instants, s.p50, s.tail = n, percentile(us, 50), percentile(us, rep.tailP)
	}
	return s, nil
}

// settle accounts one simulation phase: an error, or a digest that differs
// from the reference, fails all of its runs.
func (rep *report) settle(phase string, out *passOut, err error) {
	runs := out.runs
	if runs == 0 {
		runs = 1
	}
	rep.attempted += runs
	if err != nil {
		rep.fail(runs, fmt.Sprintf("%s: %v", phase, err))
		return
	}
	got := digest(out.digested)
	if rep.digest == "" {
		rep.digest, rep.outcomes = got, out.outcomes
		if rep.opt.want != "" && got != rep.opt.want {
			rep.fail(runs, fmt.Sprintf("%s: digest %s, golden %s", phase, got, rep.opt.want))
			rep.digest = rep.opt.want
		}
		return
	}
	if got != rep.digest {
		rep.fail(runs, fmt.Sprintf("%s: digest %s, reference %s", phase, got, rep.digest))
	}
}

func (rep *report) fail(runs int, msg string) {
	rep.failed += runs
	if len(rep.failures) < 10 {
		rep.failures = append(rep.failures, msg)
	}
}

// digest is the sha256 of the JSON encoding of a pass's summaries.
func digest(vs []any) string {
	b, err := json.Marshal(vs)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// schedMetrics derives the scheduler-layer metrics from accumulated
// call-site timings. sched.self_s excludes the engine's start work the
// policy triggers; delta handlers called during a start count there.
func schedMetrics(a *schedAcc, speed float64) map[string]float64 {
	sec := func(d time.Duration) float64 { return d.Seconds() * speed }
	return map[string]float64{
		"sched.schedule_s":     sec(a.schedule),
		"sched.self_s":         sec(a.schedule - a.start),
		"sched.cycles":         float64(a.cycles),
		"sched.useful_ratio":   ratio(float64(a.useful), float64(a.cycles)),
		"sched.delta_s":        sec(a.delta),
		"sched.deltas":         float64(a.deltas),
		"sched.propose_s":      sec(a.propose),
		"sched.proposals":      float64(a.proposals),
		"engine.start_s":       sec(a.start),
		"engine.starts":        float64(a.starts),
		"engine.start_refused": float64(a.refused),
	}
}

// layerMetrics derives one traced pass's per-layer metrics. A layer's self
// time is its time minus the decorated calls nested inside it.
func layerMetrics(lt layerTimes, instants int64, a *schedAcc, c counts, speed float64) map[string]float64 {
	sec := func(d time.Duration) float64 { return d.Seconds() * speed }
	m := schedMetrics(a, speed)
	m["sched.resize_apply_ratio"] = ratio(float64(c.schedulerResizes), float64(a.proposals))
	m["engine.step_s"] = sec(lt[layerStep])
	m["engine.instants"] = float64(instants)
	m["engine.events"] = float64(c.events)
	m["engine.self_s"] = 0
	if lt[layerStep] > 0 {
		m["engine.self_s"] = sec(lt[layerStep] - a.schedule - a.propose - a.deltaOutside)
	}
	m["engine.load_s"] = sec(lt[layerLoad])
	m["metrics.summary_s"] = sec(lt[layerSummary])
	m["workload.generate_s"] = sec(lt[layerGenerate])
	m["cwf.validate_s"] = sec(lt[layerValidate])
	m["experiment.sweep_s"] = sec(lt[layerSweep])
	m["experiment.cache_hit_ratio"] = ratio(float64(c.workloadsReused), float64(c.workloadsGenerated+c.workloadsReused))
	m["experiment.rest_s"] = 0
	if lt[layerSweep] > 0 {
		m["experiment.rest_s"] = sec(lt[layerSweep] - a.schedule)
	}
	m["dispatch.run_s"] = sec(lt[layerDispatch])
	m["dispatch.epochs"] = float64(c.epochs)
	m["dispatch.steals"] = float64(c.steals)
	m["dispatch.steals_per_epoch"] = ratio(float64(c.steals), float64(c.epochs))
	m["dispatch.rest_s"] = 0
	if lt[layerDispatch] > 0 {
		m["dispatch.rest_s"] = sec(lt[layerDispatch] - a.schedule)
	}
	m["fault.kills"] = float64(c.kills)
	m["fault.checkpoints"] = float64(c.checkpoints)
	m["fault.lost_work_proc_s"] = c.lostWork
	m["ecc.commands"] = float64(c.eccTotal)
	m["ecc.applied_ratio"] = ratio(float64(c.eccApplied), float64(c.eccTotal))
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// addTo adds the workload's metrics to the JSON result: the end-to-end
// metrics untraced, the per-layer ones traced.
func (rep *report) addTo(res *jsonResult, prefix string) {
	res.Attempted += rep.attempted
	res.Failed += rep.failed
	if rep.failed > 0 {
		res.Correct = false
	}
	defs, samples := endToEnd, rep.e2e
	if rep.opt.traced {
		defs, samples = perLayer, rep.layers
	}
	for _, d := range defs {
		res.Metrics[prefix+d.name] = jsonMetric{Value: median(samples[d.name]), Unit: d.unit}
	}
}

// contextStamp records the hardware and run shape every output carries.
func (rep *report) contextStamp() map[string]string {
	return map[string]string{
		"workload":      rep.workload,
		"seed":          strconv.FormatInt(rep.opt.seed, 10),
		"passes":        strconv.Itoa(len(rep.wall)),
		"traced_passes": strconv.Itoa(len(rep.tracedWall)),
		"warmup":        "1",
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"digest":        rep.digest,
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the human-readable report: the context stamp, then every
// metric with its unit, median, quartiles and sample count.
func (rep *report) print(w io.Writer) {
	ctx := rep.contextStamp()
	keys := make([]string, 0, len(ctx))
	for k := range ctx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "#")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%q", k, ctx[k])
	}
	fmt.Fprintf(w, "\n# attempted=%d failed=%d\n", rep.attempted, rep.failed)
	row := func(name, unit string, xs []float64, n string) {
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-28s %-7s %14.6g %14.6g %14.6g %8s\n", name, unit, median(xs), q1, q3, n)
	}
	fmt.Fprintf(w, "%-28s %-7s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range endToEnd {
		xs := rep.e2e[d.name]
		row(d.name, d.unit, xs, strconv.Itoa(len(xs)))
	}
	for _, d := range []metricDef{{"raw_jobs_per_s", "jobs/s"}, {"raw_setup_s", "s"}, {"host_speed", "ratio"}} {
		xs := rep.raw[d.name]
		row(d.name, d.unit, xs, strconv.Itoa(len(xs)))
	}
	if len(rep.instantP50) > 0 {
		n := fmt.Sprintf("%.0fx%d", median(rep.instantN), len(rep.instantN))
		row("instant_us_p50", "us", rep.instantP50, n)
		row(fmt.Sprintf("instant_us_p%g", rep.tailP), "us", rep.instantTail, n)
	}
	if !rep.opt.traced {
		return
	}
	fmt.Fprintf(w, "# traced run: %d passes, overhead %+.1f%% of untraced pass time\n",
		len(rep.tracedWall), 100*median(rep.layers["bench.trace_overhead"]))
	for _, d := range perLayer {
		xs := rep.layers[d.name]
		row(d.name, d.unit, xs, strconv.Itoa(len(xs)))
	}
	names := make([]string, 0, len(rep.policies))
	for name := range rep.policies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# policy %s\n", name)
		for _, d := range perLayer {
			if xs, ok := rep.policies[name][d.name]; ok {
				row(d.name, d.unit, xs, strconv.Itoa(len(xs)))
			}
		}
	}
}

// writeTrace writes the traced run's spans with the per-layer medians.
func (rep *report) writeTrace(path string) error {
	layers := map[string]float64{}
	for k, xs := range rep.layers {
		layers[k] = median(xs)
	}
	byPolicy := map[string]map[string]float64{}
	for name, pm := range rep.policies {
		byPolicy[name] = map[string]float64{}
		for k, xs := range pm {
			byPolicy[name][k] = median(xs)
		}
	}
	return rep.tracer.write(path, rep.contextStamp(), layers, byPolicy)
}
