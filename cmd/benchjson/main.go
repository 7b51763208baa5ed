// Command benchjson runs the repository's performance benchmarks and
// writes a machine-readable JSON snapshot (BENCH_<date>.json by default)
// so kernel regressions show up in review as a diff against the
// committed numbers. See DESIGN.md, "Packing-engine performance", for
// the regeneration workflow.
//
// Usage:
//
//	go run ./cmd/benchjson                         # BENCH_<today>.json
//	go run ./cmd/benchjson -out bench.json -count 3
//	go run ./cmd/benchjson -baseline old_bench.txt # embed prior raw output
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"elastisched/internal/benchparse"
)

type doc struct {
	Generated string `json:"generated"`
	benchparse.Env
	Benchmarks []benchparse.Bench `json:"benchmarks"`
	// Baseline carries pre-change numbers parsed from -baseline, so one
	// file documents the before/after pair.
	Baseline []benchparse.Bench `json:"baseline,omitempty"`
}

func main() {
	var (
		out      = flag.String("out", "", "output file (empty = BENCH_<today>.json)")
		benchRE  = flag.String("bench", ".", "benchmark name regexp passed to go test")
		pkgs     = flag.String("pkgs", "./internal/core,./internal/sched,./internal/simkit,./internal/engine,./internal/experiment,./internal/machine,./internal/dispatch,./internal/fault", "comma-separated packages to benchmark")
		count    = flag.Int("count", 1, "-count passed to go test")
		benchT   = flag.String("benchtime", "", "-benchtime passed to go test (empty = default)")
		baseline = flag.String("baseline", "", "raw `go test -bench` output to embed as the baseline section")
	)
	flag.Parse()

	args := []string{"test", "-run=NONE", "-bench", *benchRE, "-benchmem", "-count", fmt.Sprint(*count)}
	if *benchT != "" {
		args = append(args, "-benchtime", *benchT)
	}
	args = append(args, strings.Split(*pkgs, ",")...)

	var buf bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr) // live progress and capture
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fatal(fmt.Errorf("go %s: %w", strings.Join(args, " "), err))
	}

	benches, env, err := benchparse.Parse(&buf)
	if err != nil {
		fatal(err)
	}
	if len(benches) == 0 {
		fatal(fmt.Errorf("no benchmark results parsed — check -bench %q", *benchRE))
	}
	env.Go = runtime.Version()

	d := doc{
		Generated:  time.Now().Format("2006-01-02"),
		Env:        env,
		Benchmarks: benches,
	}
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fatal(err)
		}
		d.Baseline, _, err = benchparse.Parse(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + d.Generated + ".json"
	}
	js, err := json.MarshalIndent(&d, "", "  ")
	if err != nil {
		fatal(err)
	}
	js = append(js, '\n')
	if err := os.WriteFile(path, js, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", path, len(benches))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
