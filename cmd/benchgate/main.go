// Command benchgate re-runs the benchmarks recorded in a committed
// BENCH_<date>.json snapshot and fails when any of them regressed beyond a
// tolerance factor. It is the cheap, automatable half of the regeneration
// workflow: benchjson records numbers for review, benchgate checks fresh
// runs against them.
//
// Benchmark timings are machine- and load-sensitive, so the default
// tolerance is deliberately loose (1.75x) — the gate exists to catch
// order-of-magnitude regressions (an accidentally disabled cache, a
// restored quadratic path), not single-digit drift. Alloc counts are
// deterministic and get a tight gate: any increase beyond 10% fails.
//
// Usage:
//
//	go run ./cmd/benchgate                      # all BENCH_*.json, newest wins per benchmark
//	go run ./cmd/benchgate -file BENCH_x.json -tolerance 1.5
//	go run ./cmd/benchgate -bench 'Simulate500' -pkgs ./internal/engine
//
// With no -file, every committed BENCH_*.json is merged into one baseline:
// files are visited in name (date) order and the newest recording of each
// benchmark wins, so specialised snapshots (e.g. a scaling-curve file) add
// their benchmarks to the gate without un-gating the ones recorded earlier.
// A file recorded with -count > 1 holds several rows per benchmark; its
// median row by ns/op is the recording.
//
// Besides the absolute per-benchmark gates, a built-in ratio-gate table
// pins relative claims between pairs of benchmarks of the SAME fresh run —
// machine speed cancels out of the ratio, so these gates hold on any
// hardware. Gates over ns/op pin wall-clock claims (round-robin must stay
// slower than least-work at 8 clusters, BenchmarkShardedSkewE2E); gates
// over a ReportMetric column pin simulation-quality claims (the epoch
// protocol's stealing cells must keep beating the static splits on mean
// wait and makespan, BenchmarkShardedStealE2E). A ratio gate is skipped
// when -bench/-pkgs filter out either side.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"elastisched/internal/benchparse"
)

type snapshot struct {
	Generated  string             `json:"generated"`
	Benchmarks []benchparse.Bench `json:"benchmarks"`
}

// ratioGates pin relative claims between two benchmarks of the same fresh
// run: slower/faster must stay at or above min. Both sides come from the
// current run (never the recording), so machine speed cancels. With metric
// empty the ratio is over ns/op — machine-sensitive, so the min sits below
// the recorded ratio to absorb run-to-run noise. With metric set the ratio
// is over that b.ReportMetric column; the simulation metrics (mean wait,
// makespan) are deterministic for the committed workloads, so those gates
// can sit right at the claimed boundary.
var ratioGates = []struct {
	slower, faster string
	metric         string
	min            float64
	claim          string
}{
	{
		slower: "elastisched/internal/dispatch.BenchmarkShardedSkewE2E/route=roundrobin/clusters=8",
		faster: "elastisched/internal/dispatch.BenchmarkShardedSkewE2E/route=least-work/clusters=8",
		min:    1.3,
		claim:  "least-work beats round-robin on the skewed workload at 8 clusters",
	},
	{
		slower: "elastisched/internal/dispatch.BenchmarkShardedStealE2E/route=roundrobin/steal=false",
		faster: "elastisched/internal/dispatch.BenchmarkShardedStealE2E/route=roundrobin/steal=true",
		metric: "meanwait",
		min:    20,
		claim:  "barrier stealing repairs round-robin's giant collisions (mean wait)",
	},
	{
		slower: "elastisched/internal/dispatch.BenchmarkShardedStealE2E/route=least-work/steal=false",
		faster: "elastisched/internal/dispatch.BenchmarkShardedStealE2E/route=roundrobin/steal=true",
		metric: "meanwait",
		min:    1.1,
		claim:  "round-robin with stealing beats static least-work (mean wait)",
	},
	{
		slower: "elastisched/internal/dispatch.BenchmarkShardedStealE2E/route=least-work/steal=false",
		faster: "elastisched/internal/dispatch.BenchmarkShardedStealE2E/route=least-work/steal=true",
		metric: "meanwait",
		min:    1.4,
		claim:  "stealing improves least-work's own split (mean wait)",
	},
	{
		slower: "elastisched/internal/dispatch.BenchmarkShardedStealE2E/route=least-work/steal=false",
		faster: "elastisched/internal/dispatch.BenchmarkShardedStealE2E/route=feedback/steal=true",
		metric: "meanwait",
		min:    1.4,
		claim:  "feedback routing with stealing beats static least-work (mean wait)",
	},
	{
		slower: "elastisched/internal/dispatch.BenchmarkShardedStealE2E/route=least-work/steal=false",
		faster: "elastisched/internal/dispatch.BenchmarkShardedStealE2E/route=least-work/steal=true",
		metric: "makespan",
		min:    1.0,
		claim:  "stealing never stretches least-work's makespan",
	},
}

// requiredGates lists benchmarks the gate must actually have compared
// against a recording on a default run — a silently skipped benchmark
// (renamed, or dropped from the fresh run) would otherwise let a
// regression through without a FAIL line. The Simulate500 family runs
// with malleability off, so this is the rigid hot-path guard: the resize
// pipeline's delta fan-out must cost runs without bounds nothing
// measurable beyond tolerance, and the gate must notice if it does.
// The Faults/EASY cell is the fault-path counterpart: outage sampling,
// kill/requeue, and the periodic checkpoint chain all sit on the event
// hot loop, so that cell regressing means the fault pipeline got
// slower, not the scheduler. The Simulate500Reset cells run through one
// reused session, as sweep workers do: their alloc gate fails if a change
// brings back per-run buffers that Session.Reset now reuses. The two cold
// Reservation_DP cells time the packing kernel itself with the memo
// defeated: restoring a value-table fill slows them several times over.
// A cell is only enforced when -bench keeps its default and -pkgs names
// its package; a filtered invocation legitimately compares a subset.
var requiredGates = []string{
	"elastisched/internal/core.BenchmarkReservationDPCold",
	"elastisched/internal/core.BenchmarkReservationDPUnquantizedCold",
	"elastisched/internal/engine.BenchmarkSimulate500/FCFS",
	"elastisched/internal/engine.BenchmarkSimulate500/EASY",
	"elastisched/internal/engine.BenchmarkSimulate500/CONS",
	"elastisched/internal/engine.BenchmarkSimulate500/LOS",
	"elastisched/internal/engine.BenchmarkSimulate500/Delayed-LOS",
	"elastisched/internal/engine.BenchmarkSimulate500/Hybrid-LOS",
	"elastisched/internal/engine.BenchmarkSimulate500Faults/EASY",
	"elastisched/internal/engine.BenchmarkSimulate500Reset/EASY",
	"elastisched/internal/engine.BenchmarkSimulate500Reset/LOS",
	"elastisched/internal/engine.BenchmarkSimulate500Reset/Delayed-LOS",
	"elastisched/internal/dispatch.BenchmarkShardedSteal64",
}

// advisoryNs lists cells whose ns/op ratio is printed but never fails the
// gate; their allocs/op gate holds as for any cell. The 64-cluster steal
// run's wall clock swings with the host's scheduling of its worker pool,
// while its allocation count is fixed by the barrier protocol.
var advisoryNs = map[string]bool{
	"elastisched/internal/dispatch.BenchmarkShardedSteal64": true,
}

func main() {
	var (
		file      = flag.String("file", "", "snapshot to gate against (empty = merge all BENCH_*.json, newest wins per benchmark)")
		benchRE   = flag.String("bench", ".", "benchmark name regexp passed to go test")
		pkgs      = flag.String("pkgs", "./internal/core,./internal/sched,./internal/simkit,./internal/engine,./internal/machine,./internal/dispatch", "comma-separated packages to benchmark")
		tolerance = flag.Float64("tolerance", 1.75, "max allowed ns/op ratio current/recorded")
		count     = flag.Int("count", 1, "-count passed to go test (best run is compared)")
	)
	flag.Parse()

	paths := []string{*file}
	if *file == "" {
		matches, err := filepath.Glob("BENCH_*.json")
		if err != nil || len(matches) == 0 {
			fatal(fmt.Errorf("no BENCH_*.json snapshot found (run cmd/benchjson first)"))
		}
		sort.Strings(matches)
		paths = matches
	}
	recorded, err := loadBaseline(paths)
	if err != nil {
		fatal(err)
	}
	baseline := strings.Join(paths, "+")

	args := []string{"test", "-run=NONE", "-bench", *benchRE, "-benchmem", "-count", fmt.Sprint(*count)}
	args = append(args, strings.Split(*pkgs, ",")...)
	var buf bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fatal(fmt.Errorf("go %s: %w", strings.Join(args, " "), err))
	}
	current, _, err := benchparse.Parse(&buf)
	if err != nil {
		fatal(err)
	}

	// With -count > 1 keep the fastest run per benchmark: the minimum is the
	// best estimate of the code's cost under machine noise.
	best := map[string]benchparse.Bench{}
	for _, b := range current {
		key := b.Pkg + "." + b.Name
		if prev, ok := best[key]; !ok || b.NsPerOp < prev.NsPerOp {
			best[key] = b
		}
	}

	failed, compared := 0, 0
	comparedKeys := map[string]bool{}
	for key, cur := range best {
		rec, ok := recorded[key]
		if !ok || rec.NsPerOp <= 0 {
			continue
		}
		compared++
		comparedKeys[key] = true
		if ratio := cur.NsPerOp / rec.NsPerOp; ratio > *tolerance && advisoryNs[key] {
			fmt.Printf("benchgate: advisory %s: %.0f ns/op vs recorded %.0f (%.2fx > %.2fx)\n",
				key, cur.NsPerOp, rec.NsPerOp, ratio, *tolerance)
		} else if ratio > *tolerance {
			failed++
			fmt.Printf("benchgate: FAIL %s: %.0f ns/op vs recorded %.0f (%.2fx > %.2fx)\n",
				key, cur.NsPerOp, rec.NsPerOp, ratio, *tolerance)
		}
		if rec.AllocsPerOp > 0 {
			if ratio := float64(cur.AllocsPerOp) / float64(rec.AllocsPerOp); ratio > 1.10 {
				failed++
				fmt.Printf("benchgate: FAIL %s: %d allocs/op vs recorded %d (+%.0f%%)\n",
					key, cur.AllocsPerOp, rec.AllocsPerOp, 100*(ratio-1))
			}
		}
	}
	for _, g := range ratioGates {
		slow, okS := best[g.slower]
		fast, okF := best[g.faster]
		if !okS || !okF {
			continue
		}
		num, den := slow.NsPerOp, fast.NsPerOp
		if g.metric != "" {
			num, den = slow.Metrics[g.metric], fast.Metrics[g.metric]
		}
		if den <= 0 {
			continue
		}
		compared++
		if ratio := num / den; ratio < g.min {
			failed++
			fmt.Printf("benchgate: FAIL ratio %s: %.2fx < %.2fx (%s)\n",
				g.slower, ratio, g.min, g.claim)
		} else {
			fmt.Printf("benchgate: ratio %.2fx >= %.2fx — %s\n", ratio, g.min, g.claim)
		}
	}
	if *benchRE == "." {
		for _, key := range requiredGates {
			path, _, _ := strings.Cut(key, ".Benchmark")
			pkg := "./" + strings.TrimPrefix(path, "elastisched/")
			if comparedKeys[key] || !slices.Contains(strings.Split(*pkgs, ","), pkg) {
				continue
			}
			failed++
			switch {
			case recorded[key].NsPerOp <= 0:
				fmt.Printf("benchgate: FAIL required %s: not in any committed BENCH_*.json — re-run cmd/benchjson\n", key)
			default:
				fmt.Printf("benchgate: FAIL required %s: recorded but missing from the fresh run\n", key)
			}
		}
	}
	if compared == 0 {
		fatal(fmt.Errorf("no benchmark in the fresh run matches %s — check -bench/-pkgs", baseline))
	}
	if failed > 0 {
		fmt.Printf("benchgate: %d of %d gated benchmarks regressed beyond tolerance (vs %s)\n", failed, compared, baseline)
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — %d benchmarks within %.2fx of %s\n", compared, *tolerance, baseline)
}

// loadBaseline merges the snapshots in order, a later file's recording of a
// benchmark replacing an earlier one's. Within one file, a benchmark with
// several rows is recorded by its median row: the rows sorted by ns/op, the
// one at index (n−1)/2, so the baseline is a row that was measured.
func loadBaseline(paths []string) (map[string]benchparse.Bench, error) {
	recorded := map[string]benchparse.Bench{}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var snap snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows := map[string][]benchparse.Bench{}
		for _, b := range snap.Benchmarks {
			key := b.Pkg + "." + b.Name
			rows[key] = append(rows[key], b)
		}
		for key, rs := range rows {
			sort.SliceStable(rs, func(i, k int) bool { return rs[i].NsPerOp < rs[k].NsPerOp })
			recorded[key] = rs[(len(rs)-1)/2]
		}
	}
	return recorded, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
