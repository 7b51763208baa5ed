package job

import (
	"fmt"
	"sort"
)

// The three queues keep their live jobs in a window jobs[head:] of one
// backing array. The helpers below maintain such a window; each returns
// the updated slice and head.

// reclaim slides the live window to the front of a full backing array
// that has a dead prefix, so the next append reuses the array instead of
// growing it. Vacated slots are nil'd so they do not pin finished jobs.
func reclaim(jobs []*Job, head int) ([]*Job, int) {
	if len(jobs) < cap(jobs) || head == 0 {
		return jobs, head
	}
	n := copy(jobs, jobs[head:])
	clear(jobs[n:])
	return jobs[:n], 0
}

// removeAt deletes jobs[i], preserving order. Removing the head only
// advances it (O(1)); an emptied window restarts at the array's front.
func removeAt(jobs []*Job, head, i int) ([]*Job, int) {
	if i == head {
		jobs[i] = nil
		head++
		if head == len(jobs) {
			return jobs[:0], 0
		}
		return jobs, head
	}
	copy(jobs[i:], jobs[i+1:])
	jobs[len(jobs)-1] = nil
	return jobs[:len(jobs)-1], head
}

// resetWindow empties a window, keeping its backing array.
func resetWindow(jobs []*Job) ([]*Job, int) {
	clear(jobs)
	return jobs[:0], 0
}

// BatchQueue is W^b: the FIFO queue of waiting batch jobs, ordered by
// arrival time, except that Move_Dedicated_Head_To_Batch_Head may push a
// rigid (formerly dedicated) job to the front.
//
// The queue keeps its live jobs in jobs[head:]. Removing the head — the
// overwhelmingly common case, since backfilling starts the head whenever it
// fits — just advances head; Push reclaims the dead prefix when the backing
// array fills, so head removal is amortized O(1) with no pointer copying.
type BatchQueue struct {
	jobs []*Job
	head int
}

// NewBatchQueue returns an empty queue.
func NewBatchQueue() *BatchQueue { return &BatchQueue{} }

// Len returns the number of waiting batch jobs (B in the paper).
func (q *BatchQueue) Len() int { return len(q.jobs) - q.head }

// Empty reports whether the queue has no jobs.
func (q *BatchQueue) Empty() bool { return q.Len() == 0 }

// Head returns the first waiting job (w_1^b) or nil.
func (q *BatchQueue) Head() *Job {
	if q.Empty() {
		return nil
	}
	return q.jobs[q.head]
}

// At returns the i-th waiting job (0-based).
func (q *BatchQueue) At(i int) *Job { return q.jobs[q.head+i] }

// Jobs returns the backing slice in queue order. Callers must not reorder
// it; it is exposed so schedulers can scan the queue without copying. It is
// valid only until the next queue mutation.
func (q *BatchQueue) Jobs() []*Job { return q.jobs[q.head:] }

// Push appends an arriving job to the tail (FIFO on arrival).
func (q *BatchQueue) Push(j *Job) {
	q.jobs, q.head = reclaim(q.jobs, q.head)
	q.jobs = append(q.jobs, j)
}

// PushFront inserts a job at the head of the queue. Used by
// Move_Dedicated_Head_To_Batch_Head for due dedicated jobs.
func (q *BatchQueue) PushFront(j *Job) {
	if q.head > 0 {
		q.head--
		q.jobs[q.head] = j
		return
	}
	q.jobs = append(q.jobs, nil)
	copy(q.jobs[1:], q.jobs)
	q.jobs[0] = j
}

// Remove deletes job j from the queue, preserving order. It panics if j is
// not queued: removing an unknown job is always a scheduler bug.
func (q *BatchQueue) Remove(j *Job) {
	for i := q.head; i < len(q.jobs); i++ {
		if q.jobs[i] == j {
			q.jobs, q.head = removeAt(q.jobs, q.head, i)
			return
		}
	}
	panic(fmt.Sprintf("job: remove of job %d not in batch queue", j.ID))
}

// Reset empties the queue, keeping its backing array.
func (q *BatchQueue) Reset() { q.jobs, q.head = resetWindow(q.jobs) }

// Find returns the queued job with the given ID, or nil.
func (q *BatchQueue) Find(id int) *Job {
	for _, j := range q.Jobs() {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// DedicatedQueue is W^d: waiting dedicated jobs kept sorted by increasing
// requested start time (stable on ties, by arrival then ID).
//
// Like BatchQueue, it keeps its live jobs in jobs[head:]: PopHead — how
// every dedicated job leaves the queue when its start time comes — just
// advances head, and Push reclaims the dead prefix when the backing array
// fills, so a steady push/pop cycle reuses one array.
type DedicatedQueue struct {
	jobs []*Job
	head int
}

// NewDedicatedQueue returns an empty list.
func NewDedicatedQueue() *DedicatedQueue { return &DedicatedQueue{} }

// Len returns D, the number of waiting dedicated jobs.
func (q *DedicatedQueue) Len() int { return len(q.jobs) - q.head }

// Empty reports whether the list has no jobs.
func (q *DedicatedQueue) Empty() bool { return q.Len() == 0 }

// Head returns w_1^d, the dedicated job with the earliest requested start.
func (q *DedicatedQueue) Head() *Job {
	if q.Empty() {
		return nil
	}
	return q.jobs[q.head]
}

// Jobs returns the live jobs in sorted order (read-only for callers). It
// is valid only until the next queue mutation.
func (q *DedicatedQueue) Jobs() []*Job { return q.jobs[q.head:] }

// Push inserts a job keeping the start-time order.
func (q *DedicatedQueue) Push(j *Job) {
	q.jobs, q.head = reclaim(q.jobs, q.head)
	live := q.jobs[q.head:]
	i := q.head + sort.Search(len(live), func(i int) bool {
		a := live[i]
		if a.ReqStart != j.ReqStart {
			return a.ReqStart > j.ReqStart
		}
		if a.Arrival != j.Arrival {
			return a.Arrival > j.Arrival
		}
		return a.ID > j.ID
	})
	q.jobs = append(q.jobs, nil)
	copy(q.jobs[i+1:], q.jobs[i:])
	q.jobs[i] = j
}

// PopHead removes and returns the earliest dedicated job, or nil.
func (q *DedicatedQueue) PopHead() *Job {
	if q.Empty() {
		return nil
	}
	j := q.jobs[q.head]
	q.jobs, q.head = removeAt(q.jobs, q.head, q.head)
	return j
}

// Remove deletes job j; panics if absent.
func (q *DedicatedQueue) Remove(j *Job) {
	for i := q.head; i < len(q.jobs); i++ {
		if q.jobs[i] == j {
			q.jobs, q.head = removeAt(q.jobs, q.head, i)
			return
		}
	}
	panic(fmt.Sprintf("job: remove of job %d not in dedicated queue", j.ID))
}

// Find returns the waiting dedicated job with the given ID, or nil.
func (q *DedicatedQueue) Find(id int) *Job {
	for _, j := range q.Jobs() {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// Reset empties the queue, keeping its backing array.
func (q *DedicatedQueue) Reset() { q.jobs, q.head = resetWindow(q.jobs) }

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
//
// Live jobs occupy jobs[head:]. Jobs normally finish at their kill-by time
// — the front of the order — so the common removal just advances head;
// Insert reclaims the dead prefix when the backing array fills.
type ActiveList struct {
	jobs []*Job
	head int
}

// NewActiveList returns an empty list.
func NewActiveList() *ActiveList { return &ActiveList{} }

// Len returns the number of running jobs.
func (a *ActiveList) Len() int { return len(a.jobs) - a.head }

// Empty reports whether no jobs are running.
func (a *ActiveList) Empty() bool { return a.Len() == 0 }

// Jobs returns running jobs ordered by increasing kill-by time. The slice
// is valid only until the next list mutation.
func (a *ActiveList) Jobs() []*Job { return a.jobs[a.head:] }

// At returns the i-th running job (0-based; a_{i+1} in the paper).
func (a *ActiveList) At(i int) *Job { return a.jobs[a.head+i] }

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
	a.jobs, a.head = reclaim(a.jobs, a.head)
	live := a.jobs[a.head:]
	i := sort.Search(len(live), func(i int) bool {
		x := live[i]
		if x.EndTime != j.EndTime {
			return x.EndTime > j.EndTime
		}
		return x.ID > j.ID
	})
	a.jobs = append(a.jobs, nil)
	copy(a.jobs[a.head+i+1:], a.jobs[a.head+i:])
	a.jobs[a.head+i] = j
}

// Remove deletes a finished job; panics if absent.
func (a *ActiveList) Remove(j *Job) {
	for i := a.head; i < len(a.jobs); i++ {
		if a.jobs[i] == j {
			a.jobs, a.head = removeAt(a.jobs, a.head, i)
			return
		}
	}
	panic(fmt.Sprintf("job: remove of job %d not in active list", j.ID))
}

// Reset empties the list, keeping its backing array.
func (a *ActiveList) Reset() { a.jobs, a.head = resetWindow(a.jobs) }

// Find returns the running job with the given ID, or nil.
func (a *ActiveList) Find(id int) *Job {
	for _, j := range a.Jobs() {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// Reposition restores kill-by order after j's EndTime changed (an ECC
// retime, a checkpoint or a resize): j moves to its (EndTime, ID) slot and
// every other job keeps its place. The key is a total order, so the result
// is the order a full sort would give. Panics if j is not running.
func (a *ActiveList) Reposition(j *Job) {
	live := a.jobs[a.head:]
	i := 0
	for i < len(live) && live[i] != j {
		i++
	}
	if i == len(live) {
		panic(fmt.Sprintf("job: reposition of job %d not in active list", j.ID))
	}
	after := func(x *Job) bool {
		if x.EndTime != j.EndTime {
			return x.EndTime > j.EndTime
		}
		return x.ID > j.ID
	}
	// k is j's slot in the list without j: the first later-keyed job
	// before i, or past every earlier-keyed job after it.
	if k := sort.Search(i, func(n int) bool { return after(live[n]) }); k < i {
		copy(live[k+1:i+1], live[k:i])
		live[k] = j
	} else if k := i + sort.Search(len(live)-i-1, func(n int) bool { return after(live[i+1+n]) }); k > i {
		copy(live[i:k], live[i+1:k+1])
		live[k] = j
	}
}
