package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"elastisched/internal/benchparse"
)

// writeSnapshot writes a BENCH_*.json fixture holding rows, in order.
func writeSnapshot(t *testing.T, name string, rows ...benchparse.Bench) string {
	t.Helper()
	raw, err := json.Marshal(snapshot{Generated: "2026-10-19", Benchmarks: rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func row(name string, ns float64, allocs int64) benchparse.Bench {
	return benchparse.Bench{Name: name, Pkg: "p", NsPerOp: ns, AllocsPerOp: allocs}
}

// TestBaselineTakesMedianRow: a benchmark recorded several times in one
// file is represented by the row at index (n−1)/2 of its rows sorted by
// ns/op — with two rows the faster, with three the middle — whatever order
// the file lists them in, and the whole row comes along, not just its time.
func TestBaselineTakesMedianRow(t *testing.T) {
	path := writeSnapshot(t, "BENCH_a.json",
		row("BenchmarkTwo", 66, 11), row("BenchmarkTwo", 78, 12),
		row("BenchmarkThree", 200, 2), row("BenchmarkThree", 300, 3), row("BenchmarkThree", 100, 1),
		row("BenchmarkOne", 50, 5),
	)
	got, err := loadBaseline([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]benchparse.Bench{
		"p.BenchmarkTwo":   row("BenchmarkTwo", 66, 11),
		"p.BenchmarkThree": row("BenchmarkThree", 200, 2),
		"p.BenchmarkOne":   row("BenchmarkOne", 50, 5),
	} {
		if got[key].NsPerOp != want.NsPerOp || got[key].AllocsPerOp != want.AllocsPerOp {
			t.Errorf("%s: baseline %v ns/op %d allocs/op, want %v and %d",
				key, got[key].NsPerOp, got[key].AllocsPerOp, want.NsPerOp, want.AllocsPerOp)
		}
	}
	if len(got) != 3 {
		t.Errorf("baseline holds %d benchmarks, want 3", len(got))
	}
}

// TestBaselineNewestFileWins: across files the later one's median replaces
// the earlier recording, and benchmarks only the earlier file holds stay.
func TestBaselineNewestFileWins(t *testing.T) {
	old := writeSnapshot(t, "BENCH_a.json", row("BenchmarkX", 10, 1), row("BenchmarkY", 20, 2))
	recent := writeSnapshot(t, "BENCH_b.json",
		row("BenchmarkX", 40, 4), row("BenchmarkX", 30, 3), row("BenchmarkX", 50, 5))
	got, err := loadBaseline([]string{old, recent})
	if err != nil {
		t.Fatal(err)
	}
	if got["p.BenchmarkX"].NsPerOp != 40 || got["p.BenchmarkY"].NsPerOp != 20 {
		t.Errorf("baseline X %v, Y %v ns/op; want 40 and 20", got["p.BenchmarkX"].NsPerOp, got["p.BenchmarkY"].NsPerOp)
	}
}
