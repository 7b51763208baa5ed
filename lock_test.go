package elastisched_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/dispatch"
	"elastisched/internal/engine"
	"elastisched/internal/experiment"
	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/sched"
	"elastisched/internal/trace"
	"elastisched/internal/workload"
)

// updateLock rewrites the behaviour lock from the current tree. Run it only
// for a change that is meant to alter decisions, and say so in its log:
//
//	go test -run TestBehaviourLock -update .
var updateLock = flag.Bool("update", false, "rewrite testdata/behaviour.lock from the current tree")

const lockFile = "testdata/behaviour.lock"

// TestBehaviourLock pins the simulator's decisions cell by cell: one sha256
// per cell over the canonical JSON of the run's result (Events and Cycles
// included) and, where the run has an observer, its span log. A refactor
// that claims to be behaviour-neutral must leave every line of the lock
// file unchanged (make lock-check).
//
// The cells are
//   - engine: every registry policy and its -M variant × {no faults,
//     sampled faults with none/periodic/daly/on-resize checkpoints} ×
//     malleable on/off × contiguous on/off, over a workload carrying
//     ET/RT/EP/RP commands and malleable bounds off the allocation grid
//     (on-resize needs malleable mode, so it has no malleable-off cell);
//   - dispatch: 2 and 8 clusters × the four routes × steal on/off, each
//     run at Workers 1 and 4, which must agree;
//   - snapshot: one session snapshotted mid-run, restored, and finished.
func TestBehaviourLock(t *testing.T) {
	got := lockCells(t)
	if t.Failed() {
		return
	}
	if *updateLock {
		var b strings.Builder
		for _, c := range got {
			fmt.Fprintf(&b, "%s %s\n", c.hash, c.name)
		}
		if err := os.MkdirAll(filepath.Dir(lockFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lockFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), lockFile)
		return
	}
	want, err := readLock(lockFile)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(got))
	bad := 0
	for _, c := range got {
		seen[c.name] = true
		w, ok := want[c.name]
		switch {
		case !ok:
			t.Errorf("cell %s is not in %s", c.name, lockFile)
			bad++
		case w != c.hash:
			t.Errorf("cell %s: sha256 %s, locked %s", c.name, c.hash, w)
			bad++
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("locked cell %s was not run", name)
			bad++
		}
	}
	if bad > 0 {
		t.Logf("%d of %d cells differ from %s", bad, len(got), lockFile)
	}
}

type lockCell struct{ name, hash string }

func readLock(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		hash, name, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = hash
	}
	return out, sc.Err()
}

// digest hashes the canonical JSON of every part in order.
func digest(t *testing.T, parts ...any) string {
	t.Helper()
	h := sha256.New()
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func lockCells(t *testing.T) []lockCell {
	var cells []lockCell
	cells = append(cells, engineCells(t)...)
	cells = append(cells, dispatchCells(t)...)
	cells = append(cells, snapshotCell(t))
	return cells
}

const lockM, lockUnit = 320, 32

// lockWorkload is a small, eventful workload: ET/RT commands on odd job
// IDs, EP/RP commands on even ones, and malleable bounds on most batch
// jobs — drawn off the allocation grid, so admission has to quantize them,
// and on jobs with size commands too. hetero adds dedicated jobs.
func lockWorkload(t *testing.T, hetero bool) *cwf.Workload {
	t.Helper()
	gen := func(size bool) *cwf.Workload {
		p := workload.DefaultParams()
		p.N, p.Seed, p.TargetLoad = 100, 23, 0.9
		p.PE, p.PR, p.SizeECC = 0.3, 0.2, size
		if hetero {
			p.PD = 0.15
		}
		w, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w, sized := gen(false), gen(true)
	w.Commands = slices.DeleteFunc(w.Commands, func(c cwf.Command) bool { return c.JobID%2 == 0 })
	for _, c := range sized.Commands {
		if c.JobID%2 == 0 {
			w.Commands = append(w.Commands, c)
		}
	}
	// Each size command must stay inside the raw bounds on its own.
	grow, shrink := map[int]int{}, map[int]int{}
	for _, c := range w.Commands {
		switch c.Type {
		case cwf.ExtendProc:
			grow[c.JobID] = max(grow[c.JobID], int(c.Amount))
		case cwf.ReduceProc:
			shrink[c.JobID] = max(shrink[c.JobID], int(c.Amount))
		}
	}
	rng := rand.New(rand.NewSource(29))
	for _, j := range w.Jobs {
		lo, hi := j.Size-shrink[j.ID], j.Size+grow[j.ID]
		if j.Class != job.Batch || rng.Float64() >= 0.7 || lo < 1 || hi > lockM {
			continue
		}
		j.MinProcs = 1 + rng.Intn(lo)
		j.MaxProcs = hi + rng.Intn(lockM-hi+1)
	}
	w.Sort()
	if err := w.Validate(lockM); err != nil {
		t.Fatal(err)
	}
	return w
}

// lockFaults are the fault columns of the engine cells: name and config
// (nil for no faults).
var lockFaults = []struct {
	name string
	fc   *engine.FaultConfig
}{
	{"none", nil},
	{"ckpt-none", &engine.FaultConfig{MTBF: 30000, MTTR: 1500, Seed: 3,
		Retry: fault.RetryPolicy{Restart: fault.RemainingRuntime, Backoff: 20}}},
	{"ckpt-periodic", &engine.FaultConfig{MTBF: 30000, MTTR: 1500, Seed: 3,
		Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 1800, CheckpointCost: 40}},
	{"ckpt-daly", &engine.FaultConfig{MTBF: 30000, MTTR: 1500, Seed: 3,
		Retry: fault.RetryPolicy{MaxRetries: 2, Backoff: 10}, Checkpoint: fault.CheckpointDaly, CheckpointCost: 40}},
	{"ckpt-on-resize", &engine.FaultConfig{MTBF: 30000, MTTR: 1500, Seed: 3,
		Checkpoint: fault.CheckpointOnResize, CheckpointCost: 40}},
}

func engineCells(t *testing.T) []lockCell {
	works := map[bool]*cwf.Workload{false: lockWorkload(t, false), true: lockWorkload(t, true)}
	var names []string
	for _, n := range experiment.Names() {
		names = append(names, n, n+"-M")
	}
	pt := experiment.Point{Cs: 5}
	var cells []lockCell
	for _, name := range names {
		a, err := experiment.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range lockFaults {
			for _, malleable := range []bool{false, true} {
				if f.fc != nil && f.fc.Checkpoint == fault.CheckpointOnResize && !malleable {
					continue
				}
				for _, contiguous := range []bool{false, true} {
					cell := fmt.Sprintf("engine/%s/faults=%s/malleable=%t/contiguous=%t", name, f.name, malleable, contiguous)
					s := a.New(pt)
					rec := trace.NewRecorder(lockM, lockUnit)
					var fc *engine.FaultConfig
					if f.fc != nil {
						c := *f.fc
						fc = &c
					}
					res, err := engine.Run(works[s.Heterogeneous()], engine.Config{
						M: lockM, Unit: lockUnit, Scheduler: s,
						ProcessECC: a.ECC, Paranoid: true, Observer: rec,
						Contiguous: contiguous, Malleable: malleable, ResizeOverhead: 15,
						Faults: fc,
					})
					if err != nil {
						t.Errorf("%s: %v", cell, err)
						continue
					}
					cells = append(cells, lockCell{cell, digest(t, res, rec.Spans())})
				}
			}
		}
	}
	return cells
}

// dispatchWorkload is a skewed trace: heavy-tailed runtimes make some
// clusters back up while others idle, so stealing and feedback routing act.
func dispatchWorkload(t *testing.T) *cwf.Workload {
	t.Helper()
	p := workload.DefaultParams()
	p.N, p.Seed, p.TargetLoad = 400, 31, 0.5
	p.PD, p.PE, p.PR = 0.1, 0.2, 0.1
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	z := rand.NewZipf(rng, 2.0, 1, 200)
	for _, j := range w.Jobs {
		j.Dur *= int64(1 + z.Uint64())
	}
	return w
}

func dispatchCells(t *testing.T) []lockCell {
	w := dispatchWorkload(t)
	var last int64
	for _, j := range w.Jobs {
		last = max(last, j.Arrival)
	}
	a := experiment.MustByName("LOS-DE")
	var cells []lockCell
	for _, clusters := range []int{2, 8} {
		for _, route := range dispatch.Policies() {
			for _, steal := range []bool{false, true} {
				cell := fmt.Sprintf("dispatch/clusters=%d/route=%s/steal=%t", clusters, route, steal)
				var hashes [2]string
				for i, workers := range []int{1, 4} {
					res, err := dispatch.Run(w, dispatch.Config{
						Clusters: clusters, Workers: workers,
						Engine: engine.Config{M: lockM, Unit: lockUnit, ProcessECC: true,
							Faults: &engine.FaultConfig{MTBF: 60000, MTTR: 2000, Seed: 5}},
						NewScheduler: func() sched.Scheduler { return a.New(experiment.Point{Cs: 5}) },
						Route:        route, Epoch: last / 50, Steal: steal,
					})
					if err != nil {
						t.Errorf("%s workers %d: %v", cell, workers, err)
						break
					}
					hashes[i] = digest(t, res)
				}
				if hashes[0] != hashes[1] {
					t.Errorf("%s: Workers 1 and 4 differ (%s vs %s)", cell, hashes[0], hashes[1])
				}
				cells = append(cells, lockCell{cell, hashes[0]})
			}
		}
	}
	return cells
}

// snapshotCell runs a malleable session under faults to two thirds of its
// arrivals, snapshots it, restores the encoding into a fresh session and
// finishes there. The cell covers the encoding, the post-restore spans and
// the final result.
func snapshotCell(t *testing.T) lockCell {
	const name = "snapshot/Hybrid-LOS-E-M/faults=ckpt-daly/malleable=true"
	a := experiment.MustByName("Hybrid-LOS-E-M")
	w := lockWorkload(t, true)
	cfg := func(obs engine.Observer) engine.Config {
		return engine.Config{M: lockM, Unit: lockUnit, Scheduler: a.New(experiment.Point{Cs: 5}),
			ProcessECC: true, Malleable: true, ResizeOverhead: 15, Observer: obs,
			Faults: &engine.FaultConfig{MTBF: 30000, MTTR: 1500, Seed: 3,
				Checkpoint: fault.CheckpointDaly, CheckpointCost: 40}}
	}
	s, err := engine.New(cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(w.Jobs[2*len(w.Jobs)/3].Arrival); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := engine.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(lockM, lockUnit)
	r, err := engine.New(cfg(rec))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(dec); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	return lockCell{name, digest(t, buf.String(), res, rec.Spans())}
}
