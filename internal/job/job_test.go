package job

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func batchJob(id, size int, dur, arr int64) *Job {
	return &Job{ID: id, Size: size, Dur: dur, Arrival: arr, ReqStart: -1, Class: Batch}
}

func dedJob(id, size int, dur, arr, start int64) *Job {
	return &Job{ID: id, Size: size, Dur: dur, Arrival: arr, ReqStart: start, Class: Dedicated}
}

func TestWaitBatch(t *testing.T) {
	j := batchJob(1, 32, 100, 50)
	j.StartTime = 80
	if got := j.Wait(); got != 30 {
		t.Errorf("batch wait = %d, want 30", got)
	}
}

func TestWaitDedicatedFromRequestedStart(t *testing.T) {
	j := dedJob(1, 32, 100, 0, 500)
	j.StartTime = 650
	if got := j.Wait(); got != 150 {
		t.Errorf("dedicated wait = %d, want 150 (from requested start)", got)
	}
}

func TestWaitDedicatedOnTimeIsZero(t *testing.T) {
	j := dedJob(1, 32, 100, 0, 500)
	j.StartTime = 500
	if got := j.Wait(); got != 0 {
		t.Errorf("on-time dedicated wait = %d, want 0", got)
	}
}

func TestResidual(t *testing.T) {
	j := batchJob(1, 32, 100, 0)
	j.StartTime = 10
	j.EndTime = 110
	if got := j.Residual(60); got != 50 {
		t.Errorf("residual = %d, want 50", got)
	}
}

func TestRunTime(t *testing.T) {
	j := batchJob(1, 32, 100, 0)
	j.StartTime = 10
	j.FinishTime = 95
	if got := j.RunTime(); got != 85 {
		t.Errorf("runtime = %d, want 85", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		j    *Job
		ok   bool
	}{
		{"valid batch", batchJob(1, 32, 100, 0), true},
		{"valid dedicated", dedJob(1, 32, 100, 0, 10), true},
		{"zero size", batchJob(1, 0, 100, 0), false},
		{"oversize", batchJob(1, 400, 100, 0), false},
		{"zero duration", batchJob(1, 32, 0, 0), false},
		{"negative arrival", batchJob(1, 32, 100, -5), false},
		{"dedicated start before arrival", dedJob(1, 32, 100, 50, 10), false},
		{"full machine", batchJob(1, 320, 1, 0), true},
	}
	for _, c := range cases {
		err := c.j.Validate(320)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestClassAndStateStrings(t *testing.T) {
	if Batch.String() != "batch" || Dedicated.String() != "dedicated" {
		t.Error("class strings wrong")
	}
	if Waiting.String() != "waiting" || Running.String() != "running" || Finished.String() != "finished" {
		t.Error("state strings wrong")
	}
	if Class(9).String() == "" || State(9).String() == "" {
		t.Error("unknown class/state should render")
	}
}

func TestJobString(t *testing.T) {
	if s := batchJob(1, 32, 100, 0).String(); s == "" {
		t.Error("empty batch string")
	}
	if s := dedJob(2, 64, 10, 0, 99).String(); s == "" {
		t.Error("empty dedicated string")
	}
}

// --- BatchQueue -----------------------------------------------------------

func TestBatchQueueFIFO(t *testing.T) {
	q := NewBatchQueue()
	if !q.Empty() || q.Head() != nil {
		t.Fatal("new queue not empty")
	}
	a, b, c := batchJob(1, 32, 1, 0), batchJob(2, 32, 1, 5), batchJob(3, 32, 1, 9)
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if q.Len() != 3 || q.Head() != a || q.At(1) != b || q.At(2) != c {
		t.Fatal("FIFO order broken")
	}
}

func TestBatchQueuePushFront(t *testing.T) {
	q := NewBatchQueue()
	a, b := batchJob(1, 32, 1, 0), batchJob(2, 32, 1, 5)
	q.Push(a)
	q.PushFront(b)
	if q.Head() != b || q.At(1) != a {
		t.Fatal("PushFront did not put job at head")
	}
}

func TestBatchQueueRemoveKeepsOrder(t *testing.T) {
	q := NewBatchQueue()
	jobs := []*Job{batchJob(1, 32, 1, 0), batchJob(2, 32, 1, 1), batchJob(3, 32, 1, 2)}
	for _, j := range jobs {
		q.Push(j)
	}
	q.Remove(jobs[1])
	if q.Len() != 2 || q.Head() != jobs[0] || q.At(1) != jobs[2] {
		t.Fatal("Remove broke order")
	}
}

func TestBatchQueueRemoveUnknownPanics(t *testing.T) {
	q := NewBatchQueue()
	q.Push(batchJob(1, 32, 1, 0))
	defer func() {
		if recover() == nil {
			t.Error("Remove of unknown job did not panic")
		}
	}()
	q.Remove(batchJob(99, 32, 1, 0))
}

func TestBatchQueueFind(t *testing.T) {
	q := NewBatchQueue()
	j := batchJob(7, 32, 1, 0)
	q.Push(j)
	if q.Find(7) != j {
		t.Error("Find(7) missed")
	}
	if q.Find(8) != nil {
		t.Error("Find(8) should be nil")
	}
}

// --- DedicatedQueue --------------------------------------------------------

func TestDedicatedQueueSortedByStart(t *testing.T) {
	q := NewDedicatedQueue()
	a := dedJob(1, 32, 1, 0, 300)
	b := dedJob(2, 32, 1, 0, 100)
	c := dedJob(3, 32, 1, 0, 200)
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if q.Head() != b || q.Jobs()[1] != c || q.Jobs()[2] != a {
		t.Fatal("dedicated queue not sorted by requested start")
	}
}

func TestDedicatedQueueTieBreak(t *testing.T) {
	q := NewDedicatedQueue()
	a := dedJob(2, 32, 1, 10, 100)
	b := dedJob(1, 32, 1, 5, 100)
	q.Push(a)
	q.Push(b)
	if q.Head() != b {
		t.Fatal("equal starts should order by arrival")
	}
}

func TestDedicatedQueuePopHead(t *testing.T) {
	q := NewDedicatedQueue()
	if q.PopHead() != nil {
		t.Fatal("PopHead on empty should be nil")
	}
	a := dedJob(1, 32, 1, 0, 100)
	q.Push(a)
	if q.PopHead() != a || !q.Empty() {
		t.Fatal("PopHead broken")
	}
}

func TestDedicatedQueueRemove(t *testing.T) {
	q := NewDedicatedQueue()
	a := dedJob(1, 32, 1, 0, 100)
	b := dedJob(2, 32, 1, 0, 200)
	q.Push(a)
	q.Push(b)
	q.Remove(b)
	if q.Len() != 1 || q.Head() != a {
		t.Fatal("Remove broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("Remove of unknown dedicated job did not panic")
		}
	}()
	q.Remove(b)
}

func TestDedicatedQueueFind(t *testing.T) {
	q := NewDedicatedQueue()
	a := dedJob(4, 32, 1, 0, 100)
	q.Push(a)
	if q.Find(4) != a || q.Find(5) != nil {
		t.Error("Find broken")
	}
}

func TestTotalAtHeadStart(t *testing.T) {
	q := NewDedicatedQueue()
	if q.TotalAtHeadStart() != 0 {
		t.Fatal("empty queue total should be 0")
	}
	q.Push(dedJob(1, 64, 1, 0, 100))
	q.Push(dedJob(2, 32, 1, 0, 100))
	q.Push(dedJob(3, 96, 1, 0, 200)) // different start: excluded
	if got := q.TotalAtHeadStart(); got != 96 {
		t.Errorf("TotalAtHeadStart = %d, want 96", got)
	}
}

// --- ActiveList ------------------------------------------------------------

func runningJob(id, size int, end int64) *Job {
	j := batchJob(id, size, 1, 0)
	j.State = Running
	j.EndTime = end
	return j
}

func TestActiveListSortedByKillBy(t *testing.T) {
	a := NewActiveList()
	j1 := runningJob(1, 32, 300)
	j2 := runningJob(2, 32, 100)
	j3 := runningJob(3, 32, 200)
	a.Insert(j1)
	a.Insert(j2)
	a.Insert(j3)
	if a.At(0) != j2 || a.At(1) != j3 || a.At(2) != j1 {
		t.Fatal("active list not sorted by kill-by time")
	}
	if a.Last() != j1 {
		t.Fatal("Last wrong")
	}
}

func TestActiveListUsedProcessors(t *testing.T) {
	a := NewActiveList()
	a.Insert(runningJob(1, 64, 10))
	a.Insert(runningJob(2, 96, 20))
	if a.UsedProcessors() != 160 {
		t.Errorf("used = %d, want 160", a.UsedProcessors())
	}
}

func TestActiveListRemoveAndFind(t *testing.T) {
	a := NewActiveList()
	j := runningJob(5, 32, 10)
	a.Insert(j)
	if a.Find(5) != j || a.Find(6) != nil {
		t.Fatal("Find broken")
	}
	a.Remove(j)
	if !a.Empty() || a.Last() != nil {
		t.Fatal("Remove broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("Remove of unknown active job did not panic")
		}
	}()
	a.Remove(j)
}

// sortedIDs is the reference Reposition must agree with: the IDs of jobs
// after a full stable sort by (EndTime, ID).
func sortedIDs(jobs []*Job) []int {
	ref := append([]*Job(nil), jobs...)
	sort.SliceStable(ref, func(i, k int) bool {
		if ref[i].EndTime != ref[k].EndTime {
			return ref[i].EndTime < ref[k].EndTime
		}
		return ref[i].ID < ref[k].ID
	})
	return ids(ref)
}

func ids(jobs []*Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func TestActiveListRepositionAfterRetime(t *testing.T) {
	a := NewActiveList()
	j1 := runningJob(1, 32, 100)
	j2 := runningJob(2, 32, 200)
	j3 := runningJob(3, 32, 200)
	for _, j := range []*Job{j1, j2, j3} {
		a.Insert(j)
	}
	steps := []struct {
		j    *Job
		end  int64
		want []int
	}{
		{j1, 300, []int{2, 3, 1}}, // an ET command pushes j1's kill-by past both
		{j3, 50, []int{3, 2, 1}},  // an RT command pulls j3 to the front
		{j1, 200, []int{3, 1, 2}}, // an equal kill-by ties break by ID
		{j2, 200, []int{3, 1, 2}}, // an unchanged key stays put
	}
	for n, s := range steps {
		s.j.EndTime = s.end
		a.Reposition(s.j)
		got := ids(a.Jobs())
		if !reflect.DeepEqual(got, s.want) || !reflect.DeepEqual(got, sortedIDs(a.Jobs())) {
			t.Fatalf("step %d: Reposition(job %d) gave %v, want %v", n, s.j.ID, got, s.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Reposition of a job not running did not panic")
		}
	}()
	a.Reposition(runningJob(4, 32, 10))
}

// Property: the dedicated queue is sorted after any sequence of pushes.
func TestPropertyDedicatedSorted(t *testing.T) {
	f := func(starts []uint16) bool {
		q := NewDedicatedQueue()
		for i, s := range starts {
			q.Push(dedJob(i, 32, 1, 0, int64(s)))
		}
		jobs := q.Jobs()
		for i := 1; i < len(jobs); i++ {
			if jobs[i-1].ReqStart > jobs[i].ReqStart {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: under random inserts, removals and retimes the active list
// always matches a full stable sort of its jobs.
func TestPropertyActiveListSorted(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := NewActiveList()
	var live []*Job
	for op := 0; op < 2000; op++ {
		switch {
		case len(live) == 0 || r.Float64() < 0.5:
			j := runningJob(op, 32, int64(r.Intn(1000)))
			a.Insert(j)
			live = append(live, j)
		case r.Float64() < 0.5:
			i := r.Intn(len(live))
			a.Remove(live[i])
			live = append(live[:i], live[i+1:]...)
		default:
			i := r.Intn(len(live))
			live[i].EndTime = int64(r.Intn(1000))
			a.Reposition(live[i])
		}
		if got, want := ids(a.Jobs()), sortedIDs(live); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: active list %v, sorted reference %v", op, got, want)
		}
	}
}

func TestEffectiveRuntime(t *testing.T) {
	cases := []struct {
		dur, actual, want int64
	}{
		{100, 0, 100},   // exact estimate convention
		{100, 60, 60},   // premature termination
		{100, 100, 100}, // exact
		{100, 150, 100}, // overrun: killed at kill-by
	}
	for _, c := range cases {
		j := &Job{Dur: c.dur, Actual: c.actual}
		if got := j.EffectiveRuntime(); got != c.want {
			t.Errorf("dur=%d actual=%d: effective=%d, want %d", c.dur, c.actual, got, c.want)
		}
	}
}

func TestValidateNegativeActual(t *testing.T) {
	j := batchJob(1, 32, 100, 0)
	j.Actual = -5
	if err := j.Validate(320); err == nil {
		t.Error("negative actual runtime accepted")
	}
}

// TestQueueSteadyCycleAllocatesNothing pins the dead-prefix reclaim of the
// shared window for each collection: head removal must not leak the front
// slot, so a collection that holds a bounded number of jobs while they
// stream through reuses one array.
func TestQueueSteadyCycleAllocatesNothing(t *testing.T) {
	batch, ded, active := NewBatchQueue(), NewDedicatedQueue(), NewActiveList()
	cases := []struct {
		name string
		w    *window
		add  func(j *Job, seq int)
		drop func()
	}{
		{"batch Push/Remove head", &batch.window,
			func(j *Job, _ int) { batch.Push(j) },
			func() { batch.Remove(batch.Head()) }},
		{"dedicated Push/PopHead", &ded.window,
			func(j *Job, seq int) { j.ReqStart = int64(seq); ded.Push(j) },
			func() { ded.PopHead() }},
		{"active Insert/Remove head", &active.window,
			func(j *Job, seq int) { j.EndTime = int64(seq); active.Insert(j) },
			func() { active.Remove(active.Head()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs := make([]*Job, 64)
			for i := range jobs {
				jobs[i] = batchJob(i, 32, 1, int64(i))
			}
			next := 0
			cycle := func() {
				// Keep four jobs live: add at the tail, drop the head.
				for tc.w.Len() < 4 {
					tc.add(jobs[next%len(jobs)], next)
					next++
				}
				tc.drop()
			}
			for i := 0; i < 16; i++ {
				cycle() // warm up: grow the array to its steady size
			}
			// A leaked slot grows the array geometrically, so it costs
			// only a few reallocations in 1000 cycles, and AllocsPerRun
			// rounds its average down: one measured run catches even one.
			if allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 1000; i++ {
					cycle()
				}
			}); allocs != 0 {
				t.Errorf("1000 steady cycles allocate %.0f times, want 0", allocs)
			}
		})
	}
}

// TestDedicatedQueuePopHeadClearsSlot checks that a popped job is not
// pinned by the queue's backing array.
func TestDedicatedQueuePopHeadClearsSlot(t *testing.T) {
	q := NewDedicatedQueue()
	a, b := dedJob(1, 32, 1, 0, 100), dedJob(2, 32, 1, 0, 200)
	q.Push(a)
	q.Push(b)
	q.PopHead()
	if q.jobs[0] != nil {
		t.Error("PopHead left the popped job in the backing array")
	}
	if q.Head() != b || q.Len() != 1 || q.TotalAtHeadStart() != 32 {
		t.Errorf("after PopHead: head %v, len %d", q.Head(), q.Len())
	}
	q.Reset()
	if !q.Empty() || q.jobs[:cap(q.jobs)][1] != nil {
		t.Error("Reset left jobs behind")
	}
}
