package engine

import (
	"bytes"
	"errors"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/sched"
	"elastisched/internal/trace"
)

// offGrid is a malleable 128-proc job whose raw bounds [40, 300] lie off
// the 32-proc grid: admission rounds them inward to [64, 288].
func offGrid(id int, arr int64) *cwf.Workload {
	j := batch(id, 128, 1000, arr)
	j.MinProcs, j.MaxProcs = 40, 300
	return wl(j)
}

// TestOffGridBoundsResizeOnGrid runs jobs with off-grid raw bounds through
// every resize path that reads them. Admission is the only place that
// quantizes, so AutoResize and the ECC processor must land exactly on the
// admitted 64 and 288 — never 40 or 300, nor 32 or 320.
func TestOffGridBoundsResizeOnGrid(t *testing.T) {
	sizes := func(t *testing.T, w *cwf.Workload, s sched.Scheduler) []int {
		t.Helper()
		rec := trace.NewRecorder(320, 32)
		mustRun(t, w, Config{Scheduler: s, ProcessECC: true, Malleable: true, Observer: rec})
		var out []int
		for _, sp := range rec.Spans() {
			if sp.JobID == 1 {
				for _, rz := range sp.Resizes {
					out = append(out, rz.NewSize)
				}
			}
		}
		return out
	}
	want := func(t *testing.T, got []int, want ...int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("job 1 resized to %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("job 1 resized to %v, want %v", got, want)
			}
		}
	}

	t.Run("autoresize", func(t *testing.T) {
		// Alone, job 1 grows into the idle machine up to its admitted max;
		// a 256 head then needs 224, which is exactly its reserve down to
		// the admitted min. Once the head finishes it grows back.
		w := offGrid(1, 0)
		w.Jobs = append(w.Jobs, batch(2, 256, 50, 10))
		want(t, sizes(t, w, sched.NewAutoResize(&sched.EASY{})), 288, 64, 288)
	})

	t.Run("ecc", func(t *testing.T) {
		// EP 170 asks for 298, which rounds to 320 and clamps to 288; four
		// RP 88s then walk down the grid until the last clamps at 64.
		w := offGrid(1, 0)
		w.Commands = []cwf.Command{{JobID: 1, Issue: 10, Type: cwf.ExtendProc, Amount: 170}}
		for i := int64(0); i < 4; i++ {
			w.Commands = append(w.Commands, cwf.Command{JobID: 1, Issue: 20 + i, Type: cwf.ReduceProc, Amount: 88})
		}
		want(t, sizes(t, w, &sched.EASY{}), 288, 224, 160, 96, 64)
	})
}

// TestRestoreRejectsOffGridBounds: a snapshot file is outside input, and
// nothing past admission re-quantizes bounds, so Restore refuses a job
// whose bounds were hand-edited off the grid.
func TestRestoreRejectsOffGridBounds(t *testing.T) {
	cfg := Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}, Malleable: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(offGrid(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(0); err != nil {
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
	restore := func(b []byte) error {
		dec, err := DecodeSnapshot(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Restore(dec)
	}
	if err := restore(buf.Bytes()); err != nil {
		t.Fatalf("unedited snapshot refused: %v", err)
	}
	edited := bytes.Replace(buf.Bytes(), []byte(`"MaxProcs":288`), []byte(`"MaxProcs":300`), 1)
	if bytes.Equal(edited, buf.Bytes()) {
		t.Fatal("admitted MaxProcs 288 not found in the encoding")
	}
	if err := restore(edited); !errors.Is(err, ErrOffGridBounds) {
		t.Fatalf("off-grid MaxProcs: err = %v, want ErrOffGridBounds", err)
	}
}
