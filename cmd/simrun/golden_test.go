package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current build")

// goldenInvocations are whole command lines, run in order in one temporary
// directory: "resume" reads the snapshot "checkpoint" wrote. "$TMP" in an
// argument names that directory, and the same directory reads "$TMP" in
// the recorded output. An empty args slice reads the trace from stdin.
var goldenInvocations = []struct {
	name string
	args []string
}{
	{"plain", nil},
	{"clusters-least-work", []string{"-clusters", "4", "-route", "least-work", "testdata/trace.cwf"}},
	{"epoch-steal-feedback", []string{"-clusters", "4", "-epoch", "5000", "-steal", "-route", "feedback", "testdata/trace.cwf"}},
	{"mtbf-daly", []string{"-mtbf", "40000", "-mttr", "2000", "-restart", "remaining", "-ckpt-policy", "daly", "-ckpt-cost", "60", "testdata/trace.cwf"}},
	{"malleable", []string{"-malleable", "-resize-overhead", "30", "-algos", "EASY-M", "testdata/trace.cwf"}},
	{"checkpoint", []string{"-algos", "Delayed-LOS-E", "-until", "200000", "-checkpoint", "$TMP/mid.snap", "testdata/trace.cwf"}},
	{"resume", []string{"-resume", "$TMP/mid.snap"}},
	{"gantt", []string{"-algos", "Delayed-LOS-E", "-gantt", "-", "testdata/trace.cwf"}},
	{"jobs", []string{"-algos", "EASY", "-jobs", "-", "testdata/trace.cwf"}},
}

// TestGoldenInvocations pins simrun's complete output, stdout then stderr,
// for each invocation in goldenInvocations against testdata/<name>.golden.
// Regenerate with `go test -run TestGoldenInvocations -update`.
func TestGoldenInvocations(t *testing.T) {
	tmp := t.TempDir()
	for _, inv := range goldenInvocations {
		args := make([]string, len(inv.args))
		for i, a := range inv.args {
			args[i] = strings.ReplaceAll(a, "$TMP", tmp)
		}
		var stdin io.Reader = strings.NewReader("")
		if len(args) == 0 {
			f, err := os.Open("testdata/trace.cwf")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			stdin = f
		}
		var stdout, stderr bytes.Buffer
		if err := run(args, stdin, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v\nstderr:\n%s", inv.name, err, stderr.String())
		}
		got := strings.ReplaceAll(stdout.String()+"-- stderr --\n"+stderr.String(), tmp, "$TMP")
		path := filepath.Join("testdata", inv.name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: output differs from %s\ngot:\n%s\nwant:\n%s", inv.name, path, got, want)
		}
	}
}
