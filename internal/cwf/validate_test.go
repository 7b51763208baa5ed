package cwf_test

import (
	"fmt"
	"slices"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/job"
	"elastisched/internal/workload"
)

// validateWithMap is Validate as it stood before the sorted-ID fast path:
// every lookup through a map of the jobs. It is the oracle the fast path's
// errors are compared against.
func validateWithMap(w *cwf.Workload, m int) error {
	ids := make(map[int]*job.Job, len(w.Jobs))
	for _, j := range w.Jobs {
		if err := j.Validate(m); err != nil {
			return err
		}
		if ids[j.ID] != nil {
			return fmt.Errorf("cwf: duplicate submission for job %d", j.ID)
		}
		ids[j.ID] = j
	}
	for _, c := range w.Commands {
		j := ids[c.JobID]
		if j == nil {
			return fmt.Errorf("cwf: %v references unknown job", c)
		}
		if c.Amount <= 0 {
			return fmt.Errorf("cwf: %v has non-positive amount", c)
		}
		if !c.Type.IsECC() {
			return fmt.Errorf("cwf: %v is not an ECC", c)
		}
		if j.MaxProcs > 0 {
			switch c.Type {
			case cwf.ExtendProc:
				if int64(j.Size)+c.Amount > int64(j.MaxProcs) {
					return fmt.Errorf("cwf: %v grows job %d beyond its max procs %d (size %d)",
						c, j.ID, j.MaxProcs, j.Size)
				}
			case cwf.ReduceProc:
				if int64(j.Size)-c.Amount < int64(j.MinProcs) {
					return fmt.Errorf("cwf: %v shrinks job %d below its min procs %d (size %d)",
						c, j.ID, j.MinProcs, j.Size)
				}
			}
		}
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestValidateSortedFastPathMatchesMap runs each case twice: with its jobs
// in the listed order and reversed. Strictly increasing IDs take the
// binary-search path and any other order the map, and both must report
// exactly what the map-only oracle reports.
func TestValidateSortedFastPathMatchesMap(t *testing.T) {
	b := func(id, size int) *job.Job {
		return &job.Job{ID: id, Size: size, Dur: 100, ReqStart: -1}
	}
	bounded := func(id, size, lo, hi int) *job.Job {
		j := b(id, size)
		j.MinProcs, j.MaxProcs = lo, hi
		return j
	}
	cases := []struct {
		name    string
		jobs    []*job.Job
		cmds    []cwf.Command
		wantErr bool
	}{
		{"duplicate ID", []*job.Job{b(1, 32), b(2, 32), b(2, 64), b(3, 32)}, nil, true},
		{"unknown command job", []*job.Job{b(1, 32), b(3, 32), b(5, 32)},
			[]cwf.Command{{JobID: 3, Issue: 5, Type: cwf.ExtendTime, Amount: 10}, {JobID: 4, Issue: 6, Type: cwf.ExtendTime, Amount: 10}}, true},
		{"out-of-order IDs", []*job.Job{b(1, 32), b(7, 32), b(4, 32), b(9, 32)},
			[]cwf.Command{{JobID: 4, Issue: 5, Type: cwf.ReduceTime, Amount: 10}, {JobID: 9, Issue: 6, Type: cwf.ExtendTime, Amount: 10}}, false},
		{"out-of-order IDs, unknown command job", []*job.Job{b(1, 32), b(7, 32), b(4, 32)},
			[]cwf.Command{{JobID: 5, Issue: 5, Type: cwf.ExtendTime, Amount: 10}}, true},
		{"bounds violation", []*job.Job{b(1, 32), bounded(2, 64, 32, 96), b(3, 32)},
			[]cwf.Command{{JobID: 2, Issue: 5, Type: cwf.ExtendProc, Amount: 64}}, true},
	}
	for _, tc := range cases {
		for _, reversed := range []bool{false, true} {
			jobs := slices.Clone(tc.jobs)
			if reversed {
				slices.Reverse(jobs)
			}
			w := &cwf.Workload{Jobs: jobs, Commands: tc.cmds}
			got, want := w.Validate(320), validateWithMap(w, 320)
			if errString(got) != errString(want) {
				t.Errorf("%s (reversed=%v): Validate = %q, map oracle = %q", tc.name, reversed, errString(got), errString(want))
			}
			if (got != nil) != tc.wantErr {
				t.Errorf("%s (reversed=%v): Validate = %v, want error %v", tc.name, reversed, got, tc.wantErr)
			}
		}
	}
}

// TestValidateGeneratedWorkloadAllocatesNothing pins the fast path on the
// shape every sweep validates: a generated workload, whose job IDs
// strictly increase, with ECC commands.
func TestValidateGeneratedWorkloadAllocatesNothing(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 500
	p.PE, p.PR = 0.2, 0.1
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Commands) == 0 {
		t.Fatal("generated workload carries no commands; the test would not exercise the lookups")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := w.Validate(p.M); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate of a generated 500-job workload allocates %.0f times, want 0", allocs)
	}
}
