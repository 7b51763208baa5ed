package job

import (
	"reflect"
	"slices"
	"sort"
	"testing"
)

func sortDedicated(js []*Job) {
	sort.SliceStable(js, func(i, k int) bool {
		a, b := js[i], js[k]
		if a.ReqStart != b.ReqStart {
			return a.ReqStart < b.ReqStart
		}
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.ID < b.ID
	})
}

func sortActive(js []*Job) {
	sort.SliceStable(js, func(i, k int) bool { return killsAfter(js[k], js[i]) })
}

// checkWindow compares one collection against its model: the live jobs and
// every shared accessor, plus the window's slot hygiene — no slot outside
// jobs[head:] pins a job.
func checkWindow(t *testing.T, name string, w *window, model []*Job, nextID int) {
	t.Helper()
	if got, want := ids(w.Jobs()), ids(model); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: jobs %v, model %v", name, got, want)
	}
	if w.Len() != len(model) || w.Empty() != (len(model) == 0) {
		t.Fatalf("%s: Len %d Empty %v, model has %d", name, w.Len(), w.Empty(), len(model))
	}
	var head *Job
	if len(model) > 0 {
		head = model[0]
	}
	if w.Head() != head {
		t.Fatalf("%s: Head %v, model %v", name, w.Head(), head)
	}
	for i, j := range model {
		if w.At(i) != j {
			t.Fatalf("%s: At(%d) = %v, model %v", name, i, w.At(i), j)
		}
	}
	for _, j := range model {
		if w.Find(j.ID) != j {
			t.Fatalf("%s: Find(%d) = %v, model %v", name, j.ID, w.Find(j.ID), j)
		}
	}
	if j := w.Find(nextID + 1); j != nil {
		t.Fatalf("%s: Find of an unissued ID returned job %d", name, j.ID)
	}
	full := w.jobs[:cap(w.jobs)]
	for i, j := range full {
		if (i < w.head || i >= len(w.jobs)) && j != nil {
			t.Fatalf("%s: slot %d outside the live window [%d:%d] pins job %d", name, i, w.head, len(w.jobs), j.ID)
		}
	}
}

// FuzzJobWindows drives the three collections through random operations
// and checks each after every step against its model: a plain slice kept
// in the collection's order by a full stable sort. The input is read as
// (op, arg) byte pairs.
func FuzzJobWindows(f *testing.F) {
	// Push, remove the head (head > 0), PushFront into the dead prefix, then
	// PushFront at head == 0.
	f.Add([]byte{0, 0, 0, 0, 2, 0, 1, 0, 1, 0})
	// Dedicated pushes with equal starts, PopHead, Remove; active inserts,
	// a retime, a removal and a Reset of each collection.
	f.Add([]byte{3, 4, 3, 4, 3, 1, 4, 0, 5, 1, 6, 9, 6, 3, 6, 3, 8, 20, 7, 1, 9, 0, 9, 1, 9, 2})
	// A long stream that keeps two jobs live in each collection while
	// adding at the tail and removing the head, so every backing array
	// fills with a dead prefix and reclaims it.
	long := []byte{0, 1, 0, 2, 3, 1, 3, 2, 6, 1, 6, 2}
	for i := byte(0); i < 64; i++ {
		long = append(long, 0, i, 2, 0, 3, i, 4, 0, 6, i, 7, 0, 8, i)
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		batch, ded, active := NewBatchQueue(), NewDedicatedQueue(), NewActiveList()
		var m struct{ batch, ded, active []*Job }
		nextID := 0
		newJob := func(arg int) *Job {
			nextID++
			return &Job{ID: nextID, Size: 32 * (1 + arg%4), Dur: 1, Arrival: int64(nextID),
				ReqStart: int64(arg % 8), EndTime: int64(arg % 16)}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%10, int(data[i+1])
			switch op {
			case 0:
				j := newJob(arg)
				batch.Push(j)
				m.batch = append(m.batch, j)
			case 1:
				j := newJob(arg)
				batch.PushFront(j)
				m.batch = slices.Insert(m.batch, 0, j)
			case 2:
				if len(m.batch) > 0 {
					k := arg % len(m.batch)
					batch.Remove(m.batch[k])
					m.batch = slices.Delete(m.batch, k, k+1)
				}
			case 3:
				j := newJob(arg)
				ded.Push(j)
				m.ded = append(m.ded, j)
				sortDedicated(m.ded)
			case 4:
				var want *Job
				if len(m.ded) > 0 {
					want, m.ded = m.ded[0], m.ded[1:]
				}
				if got := ded.PopHead(); got != want {
					t.Fatalf("PopHead = %v, model %v", got, want)
				}
			case 5:
				if len(m.ded) > 0 {
					k := arg % len(m.ded)
					ded.Remove(m.ded[k])
					m.ded = slices.Delete(m.ded, k, k+1)
				}
			case 6:
				j := newJob(arg)
				active.Insert(j)
				m.active = append(m.active, j)
				sortActive(m.active)
			case 7:
				if len(m.active) > 0 {
					k := arg % len(m.active)
					active.Remove(m.active[k])
					m.active = slices.Delete(m.active, k, k+1)
				}
			case 8:
				if len(m.active) > 0 {
					j := m.active[arg%len(m.active)]
					j.EndTime = int64(arg % 16)
					active.Reposition(j)
					sortActive(m.active)
				}
			case 9:
				switch arg % 3 {
				case 0:
					batch.Reset()
					m.batch = nil
				case 1:
					ded.Reset()
					m.ded = nil
				default:
					active.Reset()
					m.active = nil
				}
			}
			checkWindow(t, "batch queue", &batch.window, m.batch, nextID)
			checkWindow(t, "dedicated queue", &ded.window, m.ded, nextID)
			checkWindow(t, "active list", &active.window, m.active, nextID)
			total := 0
			for _, j := range m.ded {
				if j.ReqStart == m.ded[0].ReqStart {
					total += j.Size
				}
			}
			if got := ded.TotalAtHeadStart(); got != total {
				t.Fatalf("TotalAtHeadStart = %d, model %d", got, total)
			}
			var last *Job
			used := 0
			for _, j := range m.active {
				last = j
				used += j.Size
			}
			if active.Last() != last || active.UsedProcessors() != used {
				t.Fatalf("Last %v UsedProcessors %d, model %v %d", active.Last(), active.UsedProcessors(), last, used)
			}
		}
	})
}
