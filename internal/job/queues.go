package job

import (
	"fmt"
	"sort"
)

// window is the ordered live window the three job collections share: the
// paper's W^b, W^d and A hold the same job tuples and differ only in their
// order key. Live jobs occupy jobs[head:] of one backing array. Removing
// the head — the common case for each collection: backfilling starts the
// batch head whenever it fits, dedicated jobs leave at their start time,
// running jobs finish at their kill-by time — just advances head, and
// insert reclaims the dead prefix when the backing array fills, so head
// removal is amortized O(1) and a steady insert/remove cycle reuses one
// array.
type window struct {
	jobs []*Job
	head int
}

// Len returns the number of live jobs (B, D or A in the paper).
func (w *window) Len() int { return len(w.jobs) - w.head }

// Empty reports whether the collection has no jobs.
func (w *window) Empty() bool { return w.Len() == 0 }

// Head returns the first job in order (w_1^b, w_1^d or a_1), or nil.
func (w *window) Head() *Job {
	if w.Empty() {
		return nil
	}
	return w.jobs[w.head]
}

// At returns the i-th live job (0-based).
func (w *window) At(i int) *Job { return w.jobs[w.head+i] }

// Jobs returns the live jobs in order. Callers must not reorder it; it is
// exposed so schedulers can scan without copying, and it is valid only
// until the next mutation.
func (w *window) Jobs() []*Job { return w.jobs[w.head:] }

// Find returns the live job with the given ID, or nil.
func (w *window) Find(id int) *Job {
	for _, j := range w.Jobs() {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// Reset empties the collection, keeping its backing array.
func (w *window) Reset() {
	clear(w.jobs)
	w.jobs, w.head = w.jobs[:0], 0
}

// insert places j at live position i (0 <= i <= Len). A full backing array
// with a dead prefix first slides the live window to the front, so the
// append reuses the array instead of growing it; vacated slots are nil'd
// so they do not pin finished jobs.
func (w *window) insert(i int, j *Job) {
	if len(w.jobs) == cap(w.jobs) && w.head > 0 {
		n := copy(w.jobs, w.jobs[w.head:])
		clear(w.jobs[n:])
		w.jobs, w.head = w.jobs[:n], 0
	}
	i += w.head
	w.jobs = append(w.jobs, nil)
	copy(w.jobs[i+1:], w.jobs[i:])
	w.jobs[i] = j
}

// removeAt deletes the live job at position i, preserving order. Removing
// the head only advances it (O(1)); an emptied window restarts at the
// array's front.
func (w *window) removeAt(i int) {
	if i == 0 {
		w.jobs[w.head] = nil
		w.head++
		if w.head == len(w.jobs) {
			w.jobs, w.head = w.jobs[:0], 0
		}
		return
	}
	i += w.head
	copy(w.jobs[i:], w.jobs[i+1:])
	w.jobs[len(w.jobs)-1] = nil
	w.jobs = w.jobs[:len(w.jobs)-1]
}

// remove deletes job j, preserving order. It panics, naming the
// collection, if j is absent: removing an unknown job is always a
// scheduler bug.
func (w *window) remove(j *Job, name string) {
	for i, x := range w.Jobs() {
		if x == j {
			w.removeAt(i)
			return
		}
	}
	panic(fmt.Sprintf("job: remove of job %d not in %s", j.ID, name))
}

// BatchQueue is W^b: the FIFO queue of waiting batch jobs, ordered by
// arrival time, except that Move_Dedicated_Head_To_Batch_Head may push a
// rigid (formerly dedicated) job to the front.
type BatchQueue struct{ window }

// NewBatchQueue returns an empty queue.
func NewBatchQueue() *BatchQueue { return &BatchQueue{} }

// Push appends an arriving job to the tail (FIFO on arrival).
func (q *BatchQueue) Push(j *Job) { q.insert(q.Len(), j) }

// PushFront inserts a job at the head of the queue. Used by
// Move_Dedicated_Head_To_Batch_Head for due dedicated jobs. A dead prefix
// takes the job in O(1).
func (q *BatchQueue) PushFront(j *Job) {
	if q.head > 0 {
		q.head--
		q.jobs[q.head] = j
		return
	}
	q.insert(0, j)
}

// Remove deletes job j from the queue, preserving order; panics if absent.
func (q *BatchQueue) Remove(j *Job) { q.remove(j, "batch queue") }

// DedicatedQueue is W^d: waiting dedicated jobs kept sorted by increasing
// requested start time (stable on ties, by arrival then ID).
type DedicatedQueue struct{ window }

// NewDedicatedQueue returns an empty list.
func NewDedicatedQueue() *DedicatedQueue { return &DedicatedQueue{} }

// Push inserts a job keeping the queue in DedicatedBefore order.
func (q *DedicatedQueue) Push(j *Job) {
	live := q.Jobs()
	q.insert(sort.Search(len(live), func(i int) bool { return DedicatedBefore(j, live[i]) }), j)
}

// DedicatedBefore reports whether dedicated job a sorts strictly before b
// in W^d: by requested start time, then arrival, then ID.
func DedicatedBefore(a, b *Job) bool {
	if a.ReqStart != b.ReqStart {
		return a.ReqStart < b.ReqStart
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// PopHead removes and returns the earliest dedicated job, or nil.
func (q *DedicatedQueue) PopHead() *Job {
	j := q.Head()
	if j != nil {
		q.removeAt(0)
	}
	return j
}

// Remove deletes job j; panics if absent.
func (q *DedicatedQueue) Remove(j *Job) { q.remove(j, "dedicated queue") }

// TotalAtHeadStart returns tot_start_num: the summed size of every waiting
// dedicated job whose requested start equals the head's requested start
// (Algorithm 2, line 16).
func (q *DedicatedQueue) TotalAtHeadStart() int {
	if q.Empty() {
		return 0
	}
	start := q.Head().ReqStart
	total := 0
	for _, j := range q.Jobs() {
		if j.ReqStart != start {
			break
		}
		total += j.Size
	}
	return total
}

// ActiveList is A: running jobs sorted by increasing kill-by time, which at
// any instant is the same as increasing residual execution time (the
// paper's ordering). Elastic Control Commands can change a running job's
// kill-by time, after which Reposition must be called.
type ActiveList struct{ window }

// NewActiveList returns an empty list.
func NewActiveList() *ActiveList { return &ActiveList{} }

// Last returns a_A, the running job with the largest residual, or nil.
func (a *ActiveList) Last() *Job {
	if a.Empty() {
		return nil
	}
	return a.jobs[len(a.jobs)-1]
}

// UsedProcessors returns the total processors held by running jobs.
func (a *ActiveList) UsedProcessors() int {
	n := 0
	for _, j := range a.Jobs() {
		n += j.Size
	}
	return n
}

// Insert adds a running job keeping kill-by order.
func (a *ActiveList) Insert(j *Job) {
	live := a.Jobs()
	a.insert(sort.Search(len(live), func(i int) bool { return killsAfter(live[i], j) }), j)
}

// Remove deletes a finished job; panics if absent.
func (a *ActiveList) Remove(j *Job) { a.remove(j, "active list") }

// killsAfter reports whether x sorts after j in kill-by (EndTime, ID) order.
func killsAfter(x, j *Job) bool {
	if x.EndTime != j.EndTime {
		return x.EndTime > j.EndTime
	}
	return x.ID > j.ID
}

// Reposition restores kill-by order after j's EndTime changed (an ECC
// retime, a checkpoint or a resize): j moves to its (EndTime, ID) slot and
// every other job keeps its place. The key is a total order, so the result
// is the order a full sort would give. Panics if j is not running.
func (a *ActiveList) Reposition(j *Job) {
	live := a.Jobs()
	i := 0
	for i < len(live) && live[i] != j {
		i++
	}
	if i == len(live) {
		panic(fmt.Sprintf("job: reposition of job %d not in active list", j.ID))
	}
	// k is j's slot in the list without j: the first later-keyed job
	// before i, or past every earlier-keyed job after it.
	if k := sort.Search(i, func(n int) bool { return killsAfter(live[n], j) }); k < i {
		copy(live[k+1:i+1], live[k:i])
		live[k] = j
	} else if k := i + sort.Search(len(live)-i-1, func(n int) bool { return killsAfter(live[i+1+n], j) }); k > i {
		copy(live[i:k], live[i+1:k+1])
		live[k] = j
	}
}
