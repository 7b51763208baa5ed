package ecc

import (
	"errors"
	"reflect"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/job"
)

// fakeTarget implements Target over explicit job maps.
type fakeTarget struct {
	now      int64
	waiting  map[int]*job.Job
	running  map[int]*job.Job
	total    int
	unit     int
	free     int
	retimed  []*job.Job
	oldEnds  []int64
	touched  []*job.Job
	resizeOK bool
}

func newTarget() *fakeTarget {
	return &fakeTarget{
		waiting: map[int]*job.Job{}, running: map[int]*job.Job{},
		total: 320, unit: 32, free: 320, resizeOK: true,
	}
}

func (f *fakeTarget) Now() int64                  { return f.now }
func (f *fakeTarget) FindWaiting(id int) *job.Job { return f.waiting[id] }
func (f *fakeTarget) FindRunning(id int) *job.Job { return f.running[id] }
func (f *fakeTarget) MachineTotal() int           { return f.total }
func (f *fakeTarget) MachineUnit() int            { return f.unit }
func (f *fakeTarget) RetimeRunning(j *job.Job, oldEnd int64) {
	f.retimed = append(f.retimed, j)
	f.oldEnds = append(f.oldEnds, oldEnd)
}
func (f *fakeTarget) TouchWaiting(j *job.Job) { f.touched = append(f.touched, j) }
func (f *fakeTarget) ResizeRunning(j *job.Job, n int) error {
	if !f.resizeOK {
		return errors.New("no capacity")
	}
	j.Size = n
	return nil
}

func cmd(id int, typ cwf.ReqType, amt int64) cwf.Command {
	return cwf.Command{JobID: id, Issue: 0, Type: typ, Amount: amt}
}

func TestETQueuedExtendsDuration(t *testing.T) {
	f := newTarget()
	j := &job.Job{ID: 1, Size: 32, Dur: 100}
	f.waiting[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ExtendTime, 50), f); out != Applied {
		t.Fatalf("outcome %v", out)
	}
	if j.Dur != 150 {
		t.Errorf("dur = %d, want 150", j.Dur)
	}
	if p.Stats.ExtendedSeconds != 50 || p.Stats.Applied != 1 {
		t.Errorf("stats wrong: %+v", p.Stats)
	}
}

func TestRTQueuedReducesDuration(t *testing.T) {
	f := newTarget()
	j := &job.Job{ID: 1, Size: 32, Dur: 100}
	f.waiting[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ReduceTime, 40), f); out != Applied {
		t.Fatalf("outcome %v", out)
	}
	if j.Dur != 60 || p.Stats.ReducedSeconds != 40 {
		t.Errorf("dur = %d, reduced = %d", j.Dur, p.Stats.ReducedSeconds)
	}
}

func TestRTQueuedClampsToOneSecond(t *testing.T) {
	f := newTarget()
	j := &job.Job{ID: 1, Size: 32, Dur: 100}
	f.waiting[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ReduceTime, 500), f); out != Clamped {
		t.Fatalf("outcome %v, want Clamped", out)
	}
	if j.Dur != 1 || p.Stats.ReducedSeconds != 99 {
		t.Errorf("dur = %d reduced = %d", j.Dur, p.Stats.ReducedSeconds)
	}
}

func TestETRunningMovesKillBy(t *testing.T) {
	f := newTarget()
	f.now = 50
	j := &job.Job{ID: 1, Size: 32, Dur: 100, StartTime: 0, EndTime: 100, State: job.Running}
	f.running[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ExtendTime, 30), f); out != Applied {
		t.Fatalf("outcome %v", out)
	}
	if j.EndTime != 130 || j.Dur != 130 {
		t.Errorf("end = %d dur = %d", j.EndTime, j.Dur)
	}
	if len(f.retimed) != 1 || f.retimed[0] != j {
		t.Error("RetimeRunning not invoked")
	}
}

func TestRTRunningReducesKillBy(t *testing.T) {
	f := newTarget()
	f.now = 50
	j := &job.Job{ID: 1, Size: 32, Dur: 100, StartTime: 0, EndTime: 100, State: job.Running}
	f.running[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ReduceTime, 20), f); out != Applied {
		t.Fatalf("outcome %v", out)
	}
	if j.EndTime != 80 || j.Dur != 80 {
		t.Errorf("end = %d dur = %d", j.EndTime, j.Dur)
	}
}

func TestRTRunningClampsToNow(t *testing.T) {
	// Reducing below the elapsed time kills the job now, not in the past.
	f := newTarget()
	f.now = 70
	j := &job.Job{ID: 1, Size: 32, Dur: 100, StartTime: 0, EndTime: 100, State: job.Running}
	f.running[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ReduceTime, 90), f); out != Clamped {
		t.Fatalf("outcome %v, want Clamped", out)
	}
	if j.EndTime != 70 {
		t.Errorf("end = %d, want 70 (now)", j.EndTime)
	}
	if p.Stats.ReducedSeconds != 30 {
		t.Errorf("reduced = %d, want 30", p.Stats.ReducedSeconds)
	}
}

func TestRTRunningAtStartInstantKeepsOneSecond(t *testing.T) {
	f := newTarget()
	f.now = 0
	j := &job.Job{ID: 1, Size: 32, Dur: 100, StartTime: 0, EndTime: 100, State: job.Running}
	f.running[1] = j
	p := NewProcessor(0)
	p.Apply(cmd(1, cwf.ReduceTime, 1000), f)
	if j.EndTime != 1 || j.Dur != 1 {
		t.Errorf("end = %d dur = %d, want 1, 1", j.EndTime, j.Dur)
	}
}

func TestUnknownJobIgnored(t *testing.T) {
	p := NewProcessor(0)
	if out := p.Apply(cmd(9, cwf.ExtendTime, 10), newTarget()); out != IgnoredFinished {
		t.Fatalf("outcome %v, want IgnoredFinished", out)
	}
	if p.Stats.IgnoredFinished != 1 {
		t.Error("stats not counted")
	}
}

func TestPerJobLimit(t *testing.T) {
	f := newTarget()
	j := &job.Job{ID: 1, Size: 32, Dur: 100}
	f.waiting[1] = j
	p := NewProcessor(2)
	p.Apply(cmd(1, cwf.ExtendTime, 10), f)
	p.Apply(cmd(1, cwf.ExtendTime, 10), f)
	if out := p.Apply(cmd(1, cwf.ExtendTime, 10), f); out != IgnoredLimit {
		t.Fatalf("third command outcome %v, want IgnoredLimit", out)
	}
	if j.Dur != 120 {
		t.Errorf("dur = %d, want 120 (only two applied)", j.Dur)
	}
}

func TestInvalidCommandIgnored(t *testing.T) {
	p := NewProcessor(0)
	f := newTarget()
	if out := p.Apply(cmd(1, cwf.ExtendTime, 0), f); out != IgnoredUnknown {
		t.Errorf("zero amount outcome %v", out)
	}
	if out := p.Apply(cmd(1, cwf.Submit, 10), f); out != IgnoredUnknown {
		t.Errorf("submit-as-ECC outcome %v", out)
	}
}

func TestEPQueuedQuantizes(t *testing.T) {
	f := newTarget()
	j := &job.Job{ID: 1, Size: 64, Dur: 100}
	f.waiting[1] = j
	p := NewProcessor(0)
	p.Apply(cmd(1, cwf.ExtendProc, 10), f) // 74 -> quantized 96
	if j.Size != 96 {
		t.Errorf("size = %d, want 96", j.Size)
	}
	if p.Stats.GrownProcs != 32 {
		t.Errorf("grown = %d, want 32", p.Stats.GrownProcs)
	}
}

func TestEPQueuedCapsAtMachine(t *testing.T) {
	f := newTarget()
	j := &job.Job{ID: 1, Size: 288, Dur: 100}
	f.waiting[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ExtendProc, 320), f); out != Clamped {
		t.Fatalf("outcome %v, want Clamped", out)
	}
	if j.Size != 320 {
		t.Errorf("size = %d, want 320", j.Size)
	}
}

func TestRPQueuedFloorsAtUnit(t *testing.T) {
	f := newTarget()
	j := &job.Job{ID: 1, Size: 64, Dur: 100}
	f.waiting[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ReduceProc, 500), f); out != Clamped {
		t.Fatalf("outcome %v, want Clamped", out)
	}
	if j.Size != 32 {
		t.Errorf("size = %d, want 32", j.Size)
	}
}

func TestEPRunningGrows(t *testing.T) {
	f := newTarget()
	j := &job.Job{ID: 1, Size: 64, Dur: 100, State: job.Running}
	f.running[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ExtendProc, 64), f); out != Applied {
		t.Fatalf("outcome %v", out)
	}
	if j.Size != 128 || p.Stats.GrownProcs != 64 {
		t.Errorf("size = %d grown = %d", j.Size, p.Stats.GrownProcs)
	}
}

func TestEPRunningNoCapacity(t *testing.T) {
	f := newTarget()
	f.resizeOK = false
	j := &job.Job{ID: 1, Size: 64, Dur: 100, State: job.Running}
	f.running[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ExtendProc, 64), f); out != IgnoredCapacity {
		t.Fatalf("outcome %v, want IgnoredCapacity", out)
	}
	if j.Size != 64 {
		t.Error("failed grow mutated job")
	}
}

func TestRPRunningShrinks(t *testing.T) {
	f := newTarget()
	j := &job.Job{ID: 1, Size: 128, Dur: 100, State: job.Running}
	f.running[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ReduceProc, 64), f); out != Applied {
		t.Fatalf("outcome %v", out)
	}
	if j.Size != 64 || p.Stats.ShrunkProcs != 64 {
		t.Errorf("size = %d shrunk = %d", j.Size, p.Stats.ShrunkProcs)
	}
}

func TestRPRunningAlreadyMinimal(t *testing.T) {
	f := newTarget()
	j := &job.Job{ID: 1, Size: 32, Dur: 100, State: job.Running}
	f.running[1] = j
	p := NewProcessor(0)
	if out := p.Apply(cmd(1, cwf.ReduceProc, 64), f); out != Clamped {
		t.Fatalf("outcome %v, want Clamped", out)
	}
	if j.Size != 32 {
		t.Error("minimal job resized")
	}
}

func TestWaitingPreferredOverRunning(t *testing.T) {
	// An ID present in both maps (cannot happen in the engine, but the
	// processor's lookup order is part of its contract): waiting wins.
	f := newTarget()
	w := &job.Job{ID: 1, Size: 32, Dur: 100}
	r := &job.Job{ID: 1, Size: 32, Dur: 100, EndTime: 100, State: job.Running}
	f.waiting[1] = w
	f.running[1] = r
	NewProcessor(0).Apply(cmd(1, cwf.ExtendTime, 10), f)
	if w.Dur != 110 || r.Dur != 100 {
		t.Error("lookup order changed")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{Applied, Clamped, IgnoredFinished, IgnoredUnknown, IgnoredLimit, IgnoredCapacity, Outcome(99)} {
		if o.String() == "" {
			t.Errorf("empty string for outcome %d", o)
		}
	}
}

func TestStatsTotals(t *testing.T) {
	f := newTarget()
	f.waiting[1] = &job.Job{ID: 1, Size: 32, Dur: 100}
	p := NewProcessor(1)
	p.Apply(cmd(1, cwf.ExtendTime, 10), f) // applied
	p.Apply(cmd(1, cwf.ExtendTime, 10), f) // limit
	p.Apply(cmd(2, cwf.ExtendTime, 10), f) // finished
	if p.Stats.Total != 3 || p.Stats.Applied != 1 || p.Stats.IgnoredLimit != 1 || p.Stats.IgnoredFinished != 1 {
		t.Errorf("stats wrong: %+v", p.Stats)
	}
}

// TestStatsAddSumsEveryField: Add is the one place accounting is summed
// across clusters and seeds, so every counter — including one added later —
// must be summed there.
func TestStatsAddSumsEveryField(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	sum := reflect.ValueOf(s.Add(s))
	for i := 0; i < v.NumField(); i++ {
		if got, want := sum.Field(i).Int(), 2*int64(i+1); got != want {
			t.Errorf("Add: %s = %d, want %d", v.Type().Field(i).Name, got, want)
		}
	}
}
