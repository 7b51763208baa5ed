package engine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/engine"
	"elastisched/internal/experiment"
	"elastisched/internal/fault"
	"elastisched/internal/workload"
)

// resetCell is one chaos-matrix cell of the fresh-vs-reset differential.
type resetCell struct {
	algo       experiment.Algorithm
	faults     string // none, periodic, daly, on-resize
	malleable  bool
	contiguous bool
	migrate    bool
	ecc        bool
	m, unit    int
	seed       int64
	w          *cwf.Workload
}

func (c resetCell) String() string {
	return fmt.Sprintf("%s faults=%s malleable=%v contiguous=%v migrate=%v ecc=%v M=%d/%d seed=%d",
		c.algo.Name, c.faults, c.malleable, c.contiguous, c.migrate, c.ecc, c.m, c.unit, c.seed)
}

// config returns the cell's engine configuration with a new scheduler.
func (c resetCell) config() engine.Config {
	cfg := engine.Config{
		M: c.m, Unit: c.unit, Scheduler: c.algo.New(experiment.Point{Cs: 7}),
		ProcessECC: c.ecc, MaxECCPerJob: 2, Paranoid: true,
		Contiguous: c.contiguous, Migrate: c.migrate,
		Malleable: c.malleable, ResizeOverhead: 5,
	}
	if c.faults != "none" {
		fc := &engine.FaultConfig{
			MTBF: 30000, MTTR: 2000, Seed: c.seed, CheckpointCost: 300,
			Retry: fault.RetryPolicy{Mode: fault.Requeue, Restart: fault.RemainingRuntime, Backoff: 20},
		}
		switch c.faults {
		case "periodic":
			fc.Checkpoint, fc.CheckpointInterval = fault.CheckpointPeriodic, 900
		case "daly":
			fc.Checkpoint = fault.CheckpointDaly
		case "on-resize":
			fc.Checkpoint = fault.CheckpointOnResize
		}
		cfg.Faults = fc
	}
	return cfg
}

// resetMatrix lists two cells per (registry policy, fault mode), with the
// remaining axes drawn from rng, in shuffled order.
func resetMatrix(t *testing.T, rng *rand.Rand) []resetCell {
	t.Helper()
	var cells []resetCell
	geometries := [][2]int{{320, 32}, {128, 16}}
	for _, name := range experiment.Names() {
		for i := 0; i < 8; i++ {
			faults := []string{"none", "periodic", "daly", "on-resize"}[i%4]
			c := resetCell{
				faults:     faults,
				malleable:  faults == "on-resize" || rng.Intn(2) == 0,
				contiguous: rng.Intn(2) == 0,
				ecc:        rng.Intn(2) == 0,
				seed:       int64(len(cells) + 1),
			}
			c.migrate = c.contiguous && rng.Intn(2) == 0
			g := geometries[rng.Intn(len(geometries))]
			c.m, c.unit = g[0], g[1]
			algo := name
			if c.malleable {
				algo += "-M" // a resize-proposing policy, so malleability acts
			}
			c.algo = experiment.MustByName(algo)
			p := workload.DefaultParams()
			p.M, p.Unit, p.Seed = c.m, c.unit, c.seed
			p.N, p.TargetLoad = 100, 1.0
			p.PE, p.PR = 0.2, 0.1
			p.MaxECCPerJob = 2
			p.SizeECC = c.seed%2 == 1
			if c.algo.New(experiment.Point{}).Heterogeneous() {
				p.PD = 0.3
			}
			if c.malleable {
				p.PM = 0.7
			}
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			c.w = w
			cells = append(cells, c)
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// resetRun is what the differential compares: the final Result and the
// encoded snapshots at t=0, mid-run and at the end.
type resetRun struct {
	res   *engine.Result
	snaps [3][]byte
}

// drive runs a loaded session to completion, snapshotting on the way. The
// mid-run snapshot is taken after the instant of the middle job's arrival.
func drive(t *testing.T, name string, s *engine.Session, w *cwf.Workload) resetRun {
	t.Helper()
	var out resetRun
	snap := func(i int) {
		sn, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot %d: %v", name, i, err)
		}
		var buf bytes.Buffer
		if err := sn.Encode(&buf); err != nil {
			t.Fatalf("%s: encode %d: %v", name, i, err)
		}
		out.snaps[i] = buf.Bytes()
	}
	snap(0)
	if err := s.RunUntil(w.Jobs[len(w.Jobs)/2].Arrival); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	snap(1)
	if err := s.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	snap(2)
	res, err := s.Result()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out.res = res
	return out
}

// TestResetMatchesFreshSession drives one session through Reset over a
// shuffled sequence of chaos-matrix cells: every registry policy under
// each fault mode (none and the periodic, daly and on-resize checkpoint
// policies), with malleability, contiguous placement with and without
// migration, ECC processing and two machine geometries drawn per cell.
// Every reset run must match a New+Load run of the same cell: Results
// deep-equal and snapshots byte-identical at t=0, mid-run and at the end.
// A field Reset forgets to clear shows up in one of them, since the cell
// before left it in a different state. Along the way the reused session
// also abandons runs midway, latches a workload error, and restores a
// mid-run snapshot.
func TestResetMatchesFreshSession(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cells := resetMatrix(t, rng)
	var sess engine.Session
	var kills, ckpts, resizes, migrations, eccApplied, dedicated int
	for i, c := range cells {
		name := fmt.Sprintf("cell %d (%v)", i, c)
		fresh, err := engine.New(c.config())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := fresh.Load(c.w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := drive(t, name, fresh, c.w)
		kills += want.res.Summary.KilledJobs
		ckpts += want.res.Summary.CheckpointsTaken
		resizes += want.res.Summary.SchedulerResizes
		migrations += want.res.Migrations
		eccApplied += want.res.ECC.Applied
		dedicated += want.res.Summary.DedicatedJobs

		if err := sess.Reset(c.config(), c.w); err != nil {
			t.Fatalf("%s: reset: %v", name, err)
		}
		got := drive(t, name, &sess, c.w)
		if !reflect.DeepEqual(got.res, want.res) {
			t.Fatalf("%s: results diverge:\nreset %+v\nfresh %+v", name, got.res, want.res)
		}
		for k, at := range []string{"t=0", "mid-run", "end"} {
			if !bytes.Equal(got.snaps[k], want.snaps[k]) {
				t.Fatalf("%s: %s snapshots differ:\nreset %s\nfresh %s", name, at, got.snaps[k], want.snaps[k])
			}
		}

		// Restore the mid-run snapshot into the reset session and finish.
		sn, err := engine.DecodeSnapshot(bytes.NewReader(want.snaps[1]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sess.Reset(c.config(), nil); err != nil {
			t.Fatalf("%s: reset for restore: %v", name, err)
		}
		if err := sess.Restore(sn); err != nil {
			t.Fatalf("%s: restore into a reset session: %v", name, err)
		}
		if err := sess.Run(); err != nil {
			t.Fatalf("%s: restored run: %v", name, err)
		}
		res, err := sess.Result()
		if err != nil {
			t.Fatalf("%s: restored run: %v", name, err)
		}
		if !reflect.DeepEqual(res, want.res) {
			t.Fatalf("%s: restored reset session diverges:\nrestored %+v\nfresh    %+v", name, res, want.res)
		}

		// Leave the session in a dirty state for the next cell: every third
		// cell abandons a run midway, with jobs queued and running and
		// events pending; every fifth latches a workload error.
		switch {
		case i%5 == 4:
			cfg := c.config()
			cfg.Scheduler = experiment.MustByName("EASY").New(experiment.Point{})
			if err := sess.Reset(cfg, hetero(t, c.m, c.unit)); err == nil {
				t.Fatalf("%s: batch-only policy accepted a dedicated workload", name)
			}
			if err := sess.Run(); err == nil {
				t.Fatalf("%s: a session with a workload error ran", name)
			}
		case i%3 == 2:
			if err := sess.Reset(c.config(), c.w); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := sess.RunUntil(c.w.Jobs[len(c.w.Jobs)/3].Arrival); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	// The matrix must exercise what the cells claim to.
	for what, n := range map[string]int{
		"kills": kills, "checkpoints": ckpts, "scheduler resizes": resizes,
		"migrations": migrations, "applied ECCs": eccApplied, "dedicated jobs": dedicated,
	} {
		if n == 0 {
			t.Errorf("no cell produced any %s", what)
		}
	}
	t.Logf("%d cells, fresh and reset: %d kills, %d checkpoints, %d resizes, %d migrations, %d ECCs, %d dedicated jobs",
		len(cells), kills, ckpts, resizes, migrations, eccApplied, dedicated)
}

// hetero returns a small workload with dedicated jobs.
func hetero(t *testing.T, m, unit int) *cwf.Workload {
	t.Helper()
	p := workload.DefaultParams()
	p.M, p.Unit, p.N, p.PD = m, unit, 20, 0.5
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumDedicated() == 0 {
		t.Fatal("workload without dedicated jobs")
	}
	return w
}
