// Package machine models the parallel machine the paper simulates: IBM's
// BlueGene/P with M = 320 processors clustered into node groups of 32, so
// only integer multiples of 32 processors can be assigned to a job.
//
// The paper's schedulers treat the machine as a capacity counter (no
// topology constraints); this package additionally tracks which node groups
// each job holds, which catches double-allocation bugs and supports
// visualization and allocation-policy ablations.
package machine

import (
	"cmp"
	"fmt"
	"slices"

	"elastisched/internal/idtab"
)

// GroupState is the health of one node group. Node groups are the failure
// domain: a fault takes whole groups out of service and a repair returns
// them, so capacity shrinks and grows in unit-sized quanta.
type GroupState uint8

const (
	// Up is a healthy group: free or allocated normally.
	Up GroupState = iota
	// Draining is a failed group still held by a running job. It is the
	// transient state between FailGroups and the victim's Release, which
	// moves it to Down; at scheduling boundaries no group is Draining.
	Draining
	// Down is a failed, unoccupied group: excluded from allocation until
	// repaired.
	Down
)

// String returns the state name.
func (s GroupState) String() string {
	switch s {
	case Up:
		return "up"
	case Draining:
		return "draining"
	case Down:
		return "down"
	}
	return fmt.Sprintf("GroupState(%d)", uint8(s))
}

// Machine is a fixed pool of processors with quantized allocation.
type Machine struct {
	total int
	unit  int
	free  int
	// contiguous requires every allocation to occupy a single run of
	// adjacent node groups, modelling torus-partitioned systems like
	// BlueGene (Section II, Krevat et al.). Fragmentation then matters:
	// enough total capacity may be free yet unallocatable.
	contiguous bool
	// groups[i] is the job ID occupying node group i, or -1 when free.
	groups []int
	// health[i] is node group i's GroupState. Down groups are unowned
	// (groups[i] == -1) but excluded from the free pool; Draining groups
	// are still owned by their victim job until it is released.
	health []GroupState
	// downProcs counts the processors of all Down and Draining groups —
	// the capacity currently out of service. drainingProcs is the Draining
	// share of it (owned by victims not yet released).
	downProcs     int
	drainingProcs int
	// owner maps the ID of each job holding an allocation to its group
	// indices. Its memory and Compact's scan track the running jobs, not
	// the job-ID space: a cluster of the sharded dispatcher sees IDs spread
	// over the whole workload.
	owner idtab.Table[[]int]
	// freeStack holds the free group indices of a scatter machine (top is
	// allocated next), making Alloc O(groups requested) instead of a scan
	// of the whole machine. Entries are removed lazily: FailGroups of a
	// free group overwrites its slot with the -1 hole marker in O(1)
	// (stackPos locates the slot) instead of splicing the slice, and pops
	// skip holes. staleFree counts the holes; the stack is compacted in
	// place — order preserved — once holes dominate. Unused under
	// contiguous allocation, where placement needs runs, not single groups.
	freeStack []int
	stackPos  []int
	staleFree int
	// idx is the contiguous machine's free-run segment tree (nil on
	// scatter machines).
	idx *runIndex
	// migratory marks that the owner is willing to Compact on demand: a
	// capacity-feasible request is then always placeable, so Fits ignores
	// fragmentation.
	migratory bool
	// migrations counts jobs moved by Compact.
	migrations int
	// idxPool recycles owner index slices between Release and Alloc so the
	// steady-state alloc/release cycle does not heap-allocate.
	idxPool [][]int
	// compact is Compact's reusable placement scratch.
	compact []placedJob
}

// placedJob is Compact's view of one running job: its current leftmost
// group and group count.
type placedJob struct {
	id    int
	first int
	n     int
}

// New returns a machine with total processors allocated in multiples of
// unit. unit must divide total; pass unit=1 for unquantized machines (e.g.
// when replaying SWF traces from non-BlueGene systems). Allocations may
// scatter across node groups (the paper's capacity-only model).
func New(total, unit int) *Machine {
	if total <= 0 {
		panic(fmt.Sprintf("machine: non-positive size %d", total))
	}
	if unit <= 0 || total%unit != 0 {
		panic(fmt.Sprintf("machine: unit %d does not divide total %d", unit, total))
	}
	m := &Machine{total: total, unit: unit, free: total}
	m.groups = make([]int, total/unit)
	for i := range m.groups {
		m.groups[i] = -1
	}
	m.health = make([]GroupState, total/unit)
	m.stackPos = make([]int, total/unit)
	m.freeStack = make([]int, 0, total/unit)
	m.rebuildFreeStack()
	return m
}

// NewContiguous returns a machine whose allocations must be contiguous
// node-group runs (first-fit placement).
func NewContiguous(total, unit int) *Machine {
	m := New(total, unit)
	m.contiguous = true
	// Contiguous placement is run-driven: the free stack is unused and the
	// run index replaces the dense scans.
	m.freeStack = nil
	m.stackPos = nil
	m.buildIndex()
	return m
}

// Reset frees and repairs every group and zeroes the migration count,
// leaving the machine as New or NewContiguous built it (migration setting
// included, which Reset keeps) while reusing its storage. The scatter free
// stack is rebuilt in New's order, so groups are handed out exactly as on
// a new machine.
func (m *Machine) Reset() {
	for i := 0; i < m.owner.Len(); i++ {
		_, idx := m.owner.At(i)
		m.idxPool = append(m.idxPool, idx)
	}
	m.owner.Reset()
	for i := range m.groups {
		m.groups[i] = -1
	}
	clear(m.health)
	m.free = m.total
	m.downProcs, m.drainingProcs, m.migrations = 0, 0, 0
	if m.contiguous {
		m.buildIndex()
	} else {
		m.rebuildFreeStack()
	}
}

// buildIndex (re)builds the free-run segment tree from the group and
// health maps.
func (m *Machine) buildIndex() {
	if m.idx == nil {
		m.idx = newRunIndex(len(m.groups))
	}
	m.idx.rebuild(m.groups, m.health)
}

// noteGroup refreshes group g's leaf in the run index after its occupancy
// or health changed. No-op on scatter machines.
func (m *Machine) noteGroup(g int) {
	if m.idx != nil {
		m.idx.set(g, m.groups[g] == -1 && m.health[g] == Up)
	}
}

// rebuildFreeStack refills the scatter free stack from the group map, in
// descending index order so groups are handed out lowest-first from a
// fresh machine.
func (m *Machine) rebuildFreeStack() {
	m.freeStack = m.freeStack[:0]
	m.staleFree = 0
	for i := range m.stackPos {
		m.stackPos[i] = 0
	}
	for i := len(m.groups) - 1; i >= 0; i-- {
		if m.groups[i] == -1 && m.health[i] == Up {
			m.pushFree(i)
		}
	}
}

// pushFree puts group g on top of the scatter free stack.
func (m *Machine) pushFree(g int) {
	m.freeStack = append(m.freeStack, g)
	m.stackPos[g] = len(m.freeStack)
}

// holeFreeStack removes group g from the scatter free stack in O(1) by
// overwriting its slot with a hole; pops skip holes. Once holes dominate
// the stack it is compacted in place, preserving entry order, so the
// amortized cost stays constant and the allocation order is exactly the
// dense stack's.
func (m *Machine) holeFreeStack(g int) {
	pos := m.stackPos[g] - 1
	if pos < 0 || m.freeStack[pos] != g {
		panic(fmt.Sprintf("machine: free group %d missing from free stack", g))
	}
	m.freeStack[pos] = -1
	m.stackPos[g] = 0
	m.staleFree++
	if m.staleFree > 64 && m.staleFree > len(m.freeStack)/2 {
		m.compactFreeStack()
	}
}

// compactFreeStack squeezes the holes out of the free stack, keeping the
// live entries in order.
func (m *Machine) compactFreeStack() {
	live := m.freeStack[:0]
	for _, g := range m.freeStack {
		if g >= 0 {
			live = append(live, g)
			m.stackPos[g] = len(live)
		}
	}
	m.freeStack = live
	m.staleFree = 0
}

// liveFree returns the number of live (non-hole) free-stack entries.
func (m *Machine) liveFree() int { return len(m.freeStack) - m.staleFree }

// ownerOf returns jobID's group indices, or nil.
func (m *Machine) ownerOf(jobID int) []int {
	idx, _ := m.owner.Get(jobID)
	return idx
}

// Contiguous reports whether allocations must be contiguous.
func (m *Machine) Contiguous() bool { return m.contiguous }

// EnableMigration declares that the owner compacts on placement failure,
// making Fits capacity-only again.
func (m *Machine) EnableMigration() { m.migratory = true }

// Migrations returns how many job moves Compact has performed.
func (m *Machine) Migrations() int { return m.migrations }

// Total returns M, the machine size in processors.
func (m *Machine) Total() int { return m.total }

// Unit returns the allocation quantum in processors (32 for BlueGene/P).
func (m *Machine) Unit() int { return m.unit }

// Free returns the number of unallocated, in-service processors (m in the
// paper).
func (m *Machine) Free() int { return m.free }

// Used returns the number of allocated processors, including those of
// Draining groups (still held by their victim until release).
func (m *Machine) Used() int { return m.total - m.free - m.downFreeProcs() }

// downFreeProcs returns the processors of Down groups (out of service and
// unowned); Draining procs are owned, so they count as Used.
func (m *Machine) downFreeProcs() int { return m.downProcs - m.drainingProcs }

// Available returns the in-service machine size: total minus the
// processors of Down and Draining groups. Schedulers plan against this
// capacity; with no faults injected it equals Total.
func (m *Machine) Available() int { return m.total - m.downProcs }

// DownProcs returns the processors currently out of service (Down or
// Draining groups).
func (m *Machine) DownProcs() int { return m.downProcs }

// NumGroups returns the number of node groups (total/unit).
func (m *Machine) NumGroups() int { return len(m.groups) }

// Utilization returns the instantaneous fraction of busy processors.
func (m *Machine) Utilization() float64 { return float64(m.Used()) / float64(m.total) }

// Fits reports whether size processors could be allocated right now. Under
// contiguous allocation this checks for a free run, not just free capacity.
func (m *Machine) Fits(size int) bool {
	if size <= 0 || size > m.free {
		return false
	}
	if !m.contiguous || m.migratory {
		return true
	}
	need := (size + m.unit - 1) / m.unit
	return m.longestFreeRun() >= need
}

// FragmentedWaste returns the free processors unusable by the largest
// currently placeable contiguous request: free minus the longest free run
// (always 0 for scatter machines).
func (m *Machine) FragmentedWaste() int {
	if !m.contiguous {
		return 0
	}
	return m.free - m.longestFreeRun()*m.unit
}

// longestFreeRun returns the length of the longest run of free, healthy
// groups of a contiguous machine, O(1) off the run index.
func (m *Machine) longestFreeRun() int { return m.idx.longestRun() }

// longestFreeRunDense is the dense O(G) scan CheckInvariants checks the run
// index against.
func (m *Machine) longestFreeRunDense() int {
	best, cur := 0, 0
	for i, g := range m.groups {
		if g == -1 && m.health[i] == Up {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 0
		}
	}
	return best
}

// findRun returns the first index of a free, healthy run of length need on
// a contiguous machine, or -1: O(log G) off the run index.
func (m *Machine) findRun(need int) int { return m.idx.findRun(need) }

// Quantize rounds size up to the allocation unit and caps it at the machine
// size. It returns an error for non-positive sizes.
func (m *Machine) Quantize(size int) (int, error) {
	if size <= 0 {
		return 0, fmt.Errorf("machine: non-positive allocation %d", size)
	}
	q := ((size + m.unit - 1) / m.unit) * m.unit
	if q > m.total {
		return 0, fmt.Errorf("machine: allocation %d exceeds machine size %d", size, m.total)
	}
	return q, nil
}

// Alloc reserves size processors for jobID. size must already be a multiple
// of the unit (the workload generator guarantees it; trace loaders call
// Quantize first). It returns an error if the request cannot be satisfied.
func (m *Machine) Alloc(jobID, size int) error {
	if jobID < 0 {
		return fmt.Errorf("machine: negative job ID %d", jobID)
	}
	if size <= 0 || size%m.unit != 0 {
		return fmt.Errorf("machine: allocation %d for job %d not a multiple of unit %d", size, jobID, m.unit)
	}
	if size > m.free {
		return fmt.Errorf("machine: allocation %d for job %d exceeds free capacity %d", size, jobID, m.free)
	}
	if m.ownerOf(jobID) != nil {
		return fmt.Errorf("machine: job %d already holds an allocation", jobID)
	}
	need := size / m.unit
	idx := m.takeIdx(need)
	if m.contiguous {
		at := m.findRun(need)
		if at < 0 {
			m.idxPool = append(m.idxPool, idx)
			return fmt.Errorf("machine: no contiguous run of %d groups for job %d (free %d, fragmented)", need, jobID, m.free)
		}
		for i := at; i < at+need; i++ {
			m.groups[i] = jobID
			m.noteGroup(i)
			idx = append(idx, i)
		}
	} else {
		idx = m.takeFree(jobID, need, idx)
	}
	m.owner.Put(jobID, idx)
	m.free -= size
	return nil
}

// takeFree pops the top need live groups off the scatter free stack,
// assigning them to jobID in stack order (deepest of the popped segment
// first — the order the hole-free stack handed them out), and appends
// their indices to idx. Holes crossed on the way are discarded, so the pop
// cost is amortized O(need).
func (m *Machine) takeFree(jobID, need int, idx []int) []int {
	if m.liveFree() < need {
		// free counter said yes but the free stack disagrees: corruption.
		panic(fmt.Sprintf("machine: free=%d but only %d/%d groups available", m.free, m.liveFree(), need))
	}
	top, live := len(m.freeStack), 0
	for live < need {
		top--
		if m.freeStack[top] >= 0 {
			live++
		} else {
			m.staleFree--
		}
	}
	for _, g := range m.freeStack[top:] {
		if g < 0 {
			continue
		}
		m.groups[g] = jobID
		m.stackPos[g] = 0
		idx = append(idx, g)
	}
	m.freeStack = m.freeStack[:top]
	return idx
}

// takeIdx returns an empty index slice with capacity >= need, reusing a
// released slice when one is large enough.
func (m *Machine) takeIdx(need int) []int {
	for i := len(m.idxPool) - 1; i >= 0; i-- {
		if s := m.idxPool[i]; cap(s) >= need {
			m.idxPool[i] = m.idxPool[len(m.idxPool)-1]
			m.idxPool = m.idxPool[:len(m.idxPool)-1]
			return s[:0]
		}
	}
	return make([]int, 0, need)
}

// Compact migrates running jobs toward group 0, coalescing all free groups
// into one trailing run — the on-the-fly defragmentation of Krevat et al.
// It returns the number of jobs whose placement changed. Only meaningful
// (but harmless) on contiguous machines.
func (m *Machine) Compact() int {
	// Compaction is suspended while any group is out of service: packing
	// jobs toward group 0 across Down holes would either break their
	// contiguity or reoccupy failed hardware.
	if m.downProcs > 0 {
		return 0
	}
	// Stable order: jobs sorted by their current first group (unique per
	// job, so an unstable sort cannot reorder equals).
	jobs := m.compact[:0]
	for i := 0; i < m.owner.Len(); i++ {
		id, idx := m.owner.At(i)
		first := idx[0]
		for _, g := range idx {
			if g < first {
				first = g
			}
		}
		jobs = append(jobs, placedJob{id, first, len(idx)})
	}
	m.compact = jobs
	slices.SortFunc(jobs, func(a, b placedJob) int { return a.first - b.first })
	for i := range m.groups {
		m.groups[i] = -1
	}
	moved := 0
	next := 0
	for _, p := range jobs {
		// The job's group count is unchanged, so its existing index slice is
		// rewritten in place.
		idx := m.ownerOf(p.id)
		for k := 0; k < p.n; k++ {
			m.groups[next+k] = p.id
			idx[k] = next + k
		}
		if p.first != next {
			moved++
		}
		next += p.n
	}
	if m.contiguous {
		m.idx.rebuild(m.groups, m.health)
	} else {
		m.rebuildFreeStack()
	}
	m.migrations += moved
	return moved
}

// Release frees every processor held by jobID. Releasing a job with no
// allocation is an error (double release is always a scheduler bug).
// Draining groups (failed while the job held them) go Down instead of
// returning to the free pool.
func (m *Machine) Release(jobID int) error {
	idx := m.ownerOf(jobID)
	if idx == nil {
		return fmt.Errorf("machine: release of job %d which holds no allocation", jobID)
	}
	for _, i := range idx {
		m.freeGroup(i)
	}
	m.owner.Delete(jobID)
	m.idxPool = append(m.idxPool, idx)
	return nil
}

// freeGroup hands group g back: to the free pool when healthy, to Down
// when it failed while owned.
func (m *Machine) freeGroup(g int) {
	m.groups[g] = -1
	if m.health[g] == Draining {
		m.health[g] = Down
		m.drainingProcs -= m.unit
		return
	}
	if !m.contiguous {
		m.pushFree(g)
	} else {
		m.noteGroup(g)
	}
	m.free += m.unit
}

// Resize grows or shrinks jobID's allocation to newSize processors (a
// multiple of the unit). Shrinking always succeeds; growing requires enough
// free capacity. This supports the paper's future-work EP/RP commands.
func (m *Machine) Resize(jobID, newSize int) error {
	idx := m.ownerOf(jobID)
	if idx == nil {
		return fmt.Errorf("machine: resize of job %d which holds no allocation", jobID)
	}
	if newSize <= 0 || newSize%m.unit != 0 {
		return fmt.Errorf("machine: resize to %d not a positive multiple of unit %d", newSize, m.unit)
	}
	cur := len(idx) * m.unit
	switch {
	case newSize == cur:
		return nil
	case newSize < cur:
		drop := (cur - newSize) / m.unit
		for _, g := range idx[len(idx)-drop:] {
			m.freeGroup(g)
		}
		m.owner.Put(jobID, idx[:len(idx)-drop])
		return nil
	default:
		grow := newSize - cur
		if grow > m.free {
			return fmt.Errorf("machine: resize of job %d to %d needs %d free, have %d", jobID, newSize, grow, m.free)
		}
		need := grow / m.unit
		if m.contiguous {
			// A contiguous job may only grow into the free groups directly
			// after its run (space continuity, paper Section VI).
			last := idx[len(idx)-1]
			for k := 1; k <= need; k++ {
				if last+k >= len(m.groups) || m.groups[last+k] != -1 || m.health[last+k] != Up {
					return fmt.Errorf("machine: job %d cannot grow contiguously by %d groups", jobID, need)
				}
			}
			for k := 1; k <= need; k++ {
				m.groups[last+k] = jobID
				m.noteGroup(last + k)
				idx = append(idx, last+k)
			}
		} else {
			idx = m.takeFree(jobID, need, idx)
		}
		m.owner.Put(jobID, idx)
		m.free -= grow
		return nil
	}
}

// AllUp reports whether every node group jobID holds is healthy. Jobs with
// no allocation are vacuously healthy.
func (m *Machine) AllUp(jobID int) bool {
	for _, g := range m.ownerOf(jobID) {
		if m.health[g] != Up {
			return false
		}
	}
	return true
}

// ShrinkDraining shrinks jobID's allocation down to its healthy groups:
// every Draining group the job holds goes Down (as a kill would move it),
// and the job keeps running on what remains. It is the malleable
// alternative to killing a failure victim. On contiguous machines space
// continuity must survive, so the job keeps only the longest contiguous
// run of Up groups in its allocation; healthy groups outside that run are
// returned to the free pool.
//
// The shrink is refused — with no mutation — when the kept allocation
// would fall below minProcs (the job's quantized minimum). It returns the
// job's new allocation size in processors.
func (m *Machine) ShrinkDraining(jobID, minProcs int) (int, error) {
	idx := m.ownerOf(jobID)
	if idx == nil {
		return 0, fmt.Errorf("machine: shrink of job %d which holds no allocation", jobID)
	}
	if m.contiguous {
		// Longest contiguous sub-run of Up groups. The index slice is kept
		// in ascending consecutive order by Alloc/Resize/Compact.
		bestAt, bestLen, at, run := 0, 0, 0, 0
		for i, g := range idx {
			if m.health[g] == Up {
				if run == 0 {
					at = i
				}
				run++
				if run > bestLen {
					bestAt, bestLen = at, run
				}
			} else {
				run = 0
			}
		}
		if bestLen*m.unit < minProcs {
			return 0, fmt.Errorf("machine: job %d has %d healthy contiguous procs, needs %d", jobID, bestLen*m.unit, minProcs)
		}
		for i, g := range idx {
			if i >= bestAt && i < bestAt+bestLen {
				continue
			}
			m.freeGroup(g) // Draining -> Down; healthy -> free pool
		}
		copy(idx, idx[bestAt:bestAt+bestLen])
		m.owner.Put(jobID, idx[:bestLen])
		return bestLen * m.unit, nil
	}
	kept := 0
	for _, g := range idx {
		if m.health[g] == Up {
			kept++
		}
	}
	if kept*m.unit < minProcs {
		return 0, fmt.Errorf("machine: job %d has %d healthy procs, needs %d", jobID, kept*m.unit, minProcs)
	}
	if kept == len(idx) {
		return kept * m.unit, nil
	}
	w := 0
	for _, g := range idx {
		if m.health[g] == Up {
			idx[w] = g
			w++
		} else {
			m.freeGroup(g) // Draining -> Down, capacity already counted down
		}
	}
	m.owner.Put(jobID, idx[:w])
	return w * m.unit, nil
}

// FailGroups takes the named node groups out of service. Free groups go
// Down immediately (leaving the free pool); groups held by a running job
// go Draining, and the job — returned in victims, deduplicated — must be
// killed by the caller, whose Release moves its Draining groups to Down.
// Groups already Down or Draining are skipped. It returns the number of
// groups newly taken out of service and the victim job IDs.
func (m *Machine) FailGroups(gs []int) (failed int, victims []int, err error) {
	for _, g := range gs {
		if g < 0 || g >= len(m.groups) {
			return failed, victims, fmt.Errorf("machine: fail of group %d outside [0,%d)", g, len(m.groups))
		}
	}
	for _, g := range gs {
		if m.health[g] != Up {
			continue
		}
		failed++
		m.downProcs += m.unit
		if id := m.groups[g]; id != -1 {
			m.health[g] = Draining
			m.drainingProcs += m.unit
			if !containsInt(victims, id) {
				victims = append(victims, id)
			}
			continue
		}
		m.health[g] = Down
		m.free -= m.unit
		if !m.contiguous {
			m.holeFreeStack(g)
		} else {
			m.noteGroup(g)
		}
	}
	return failed, victims, nil
}

// RepairGroups returns the named Down groups to service, growing the free
// pool. Groups that are Up or Draining are skipped (repairing healthy
// hardware is a no-op; a Draining group cannot be repaired under its
// victim). It returns the number of groups repaired.
func (m *Machine) RepairGroups(gs []int) (repaired int, err error) {
	for _, g := range gs {
		if g < 0 || g >= len(m.groups) {
			return repaired, fmt.Errorf("machine: repair of group %d outside [0,%d)", g, len(m.groups))
		}
	}
	for _, g := range gs {
		if m.health[g] != Down {
			continue
		}
		repaired++
		m.health[g] = Up
		m.downProcs -= m.unit
		m.free += m.unit
		if !m.contiguous {
			m.pushFree(g)
		} else {
			m.noteGroup(g)
		}
	}
	return repaired, nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// OwnedGroups returns a copy of the node-group indices jobID holds.
func (m *Machine) OwnedGroups(jobID int) []int {
	idx := m.ownerOf(jobID)
	out := make([]int, len(idx))
	copy(out, idx)
	return out
}

// Groups returns a copy of the node-group occupancy map (-1 = free).
func (m *Machine) Groups() []int {
	out := make([]int, len(m.groups))
	copy(out, m.groups)
	return out
}

// OwnerSnap records one job's allocation in a Snapshot: the node-group
// indices it holds, in allocation order (the order matters — Resize shrinks
// from the tail and Compact rewrites in place, so reconstructing it from
// the group map alone would lose it).
type OwnerSnap struct {
	JobID  int   `json:"job_id"`
	Groups []int `json:"groups"`
}

// Snapshot is the machine's complete restorable state. FreeStack is carried
// verbatim because its order determines which groups future allocations
// receive: restoring it exactly keeps a resumed run's placements identical
// to the uninterrupted run's.
type Snapshot struct {
	Total      int         `json:"total"`
	Unit       int         `json:"unit"`
	Contiguous bool        `json:"contiguous,omitempty"`
	Migratory  bool        `json:"migratory,omitempty"`
	Groups     []int       `json:"groups"`
	FreeStack  []int       `json:"free_stack,omitempty"`
	Owners     []OwnerSnap `json:"owners,omitempty"`
	Migrations int         `json:"migrations,omitempty"`
	// Health carries per-group states when any group is out of service
	// (omitted — all Up — otherwise). Snapshots are taken at instant
	// boundaries, where no group is Draining, so only Up/Down appear.
	Health []GroupState `json:"health,omitempty"`
}

// Snapshot captures the machine state for later FromSnapshot restoration.
func (m *Machine) Snapshot() Snapshot {
	s := Snapshot{
		Total:      m.total,
		Unit:       m.unit,
		Contiguous: m.contiguous,
		Migratory:  m.migratory,
		Groups:     append([]int(nil), m.groups...),
		Migrations: m.migrations,
	}
	if !m.contiguous {
		// Holes (lazily deleted entries) are squeezed out, preserving entry
		// order: the snapshot records exactly the live stack, so a restored
		// machine hands out the same groups in the same order.
		for _, g := range m.freeStack {
			if g >= 0 {
				s.FreeStack = append(s.FreeStack, g)
			}
		}
	}
	for i := 0; i < m.owner.Len(); i++ {
		id, idx := m.owner.At(i)
		s.Owners = append(s.Owners, OwnerSnap{JobID: id, Groups: append([]int(nil), idx...)})
	}
	// The owner table is unordered; ascending job IDs keep the snapshot
	// canonical.
	slices.SortFunc(s.Owners, func(a, b OwnerSnap) int { return cmp.Compare(a.JobID, b.JobID) })
	if m.downProcs > 0 {
		if m.drainingProcs > 0 {
			panic("machine: snapshot with draining groups (mid-failure state)")
		}
		s.Health = append([]GroupState(nil), m.health...)
	}
	return s
}

// FromSnapshot reconstructs a machine from a Snapshot and verifies its
// internal consistency, so a corrupted or hand-edited snapshot is rejected
// instead of silently producing an inconsistent simulation.
func FromSnapshot(s Snapshot) (*Machine, error) {
	if s.Total <= 0 || s.Unit <= 0 || s.Total%s.Unit != 0 {
		return nil, fmt.Errorf("machine: snapshot geometry %d/%d invalid", s.Total, s.Unit)
	}
	if len(s.Groups) != s.Total/s.Unit {
		return nil, fmt.Errorf("machine: snapshot has %d groups, geometry needs %d", len(s.Groups), s.Total/s.Unit)
	}
	m := &Machine{total: s.Total, unit: s.Unit, contiguous: s.Contiguous, migratory: s.Migratory, migrations: s.Migrations}
	m.groups = append([]int(nil), s.Groups...)
	if s.Health == nil {
		m.health = make([]GroupState, len(m.groups))
	} else {
		if len(s.Health) != len(m.groups) {
			return nil, fmt.Errorf("machine: snapshot has %d health entries, geometry needs %d", len(s.Health), len(m.groups))
		}
		m.health = append([]GroupState(nil), s.Health...)
		for g, h := range m.health {
			switch h {
			case Up:
			case Down:
				if m.groups[g] != -1 {
					return nil, fmt.Errorf("machine: snapshot group %d down but owned by job %d", g, m.groups[g])
				}
				m.downProcs += m.unit
			default:
				return nil, fmt.Errorf("machine: snapshot group %d in non-restorable state %v", g, h)
			}
		}
	}
	freeGroups := 0
	for g, id := range m.groups {
		if id == -1 && m.health[g] == Up {
			freeGroups++
		}
	}
	m.free = freeGroups * m.unit
	for _, o := range s.Owners {
		if o.JobID < 0 {
			return nil, fmt.Errorf("machine: snapshot owner with negative job ID %d", o.JobID)
		}
		if _, dup := m.owner.Get(o.JobID); dup {
			return nil, fmt.Errorf("machine: snapshot lists job %d twice", o.JobID)
		}
		for _, g := range o.Groups {
			if g < 0 || g >= len(m.groups) {
				return nil, fmt.Errorf("machine: snapshot job %d owns out-of-range group %d", o.JobID, g)
			}
		}
		m.owner.Put(o.JobID, append([]int(nil), o.Groups...))
	}
	if s.Contiguous {
		if len(s.FreeStack) != 0 {
			return nil, fmt.Errorf("machine: contiguous snapshot carries a free stack")
		}
		m.buildIndex()
	} else {
		seen := make(map[int]bool, len(s.FreeStack))
		m.stackPos = make([]int, len(m.groups))
		for _, g := range s.FreeStack {
			if g < 0 || g >= len(m.groups) || m.groups[g] != -1 || m.health[g] != Up || seen[g] {
				return nil, fmt.Errorf("machine: snapshot free stack entry %d invalid", g)
			}
			seen[g] = true
			m.pushFree(g)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("machine: inconsistent snapshot: %v", err)
	}
	return m, nil
}

// CheckInvariants verifies internal consistency: the free counter matches
// the group map and the owner index is exact. Used by tests and the
// engine's paranoid mode.
func (m *Machine) CheckInvariants() error {
	if len(m.health) != len(m.groups) {
		return fmt.Errorf("machine: health table has %d entries, group map %d", len(m.health), len(m.groups))
	}
	freeGroups, downGroups, drainGroups := 0, 0, 0
	perJob := map[int]int{}
	for i, g := range m.groups {
		switch m.health[i] {
		case Down:
			if g != -1 {
				return fmt.Errorf("machine: down group %d owned by job %d", i, g)
			}
			downGroups++
			continue
		case Draining:
			if g == -1 {
				return fmt.Errorf("machine: draining group %d has no owner", i)
			}
			drainGroups++
		}
		if g == -1 {
			freeGroups++
		} else {
			perJob[g]++
		}
	}
	if freeGroups*m.unit != m.free {
		return fmt.Errorf("machine: free counter %d != free groups %d*%d", m.free, freeGroups, m.unit)
	}
	if (downGroups+drainGroups)*m.unit != m.downProcs {
		return fmt.Errorf("machine: down counter %d != (%d down + %d draining)*%d", m.downProcs, downGroups, drainGroups, m.unit)
	}
	if drainGroups*m.unit != m.drainingProcs {
		return fmt.Errorf("machine: draining counter %d != %d draining groups*%d", m.drainingProcs, drainGroups, m.unit)
	}
	if !m.contiguous {
		if m.liveFree() != freeGroups {
			return fmt.Errorf("machine: free stack has %d live groups, group map has %d", m.liveFree(), freeGroups)
		}
		holes := 0
		for i, g := range m.freeStack {
			if g < 0 {
				holes++
				continue
			}
			if m.stackPos[g] != i+1 {
				return fmt.Errorf("machine: free stack entry %d at %d but stackPos says %d", g, i, m.stackPos[g]-1)
			}
			if m.groups[g] != -1 || m.health[g] != Up {
				return fmt.Errorf("machine: free stack entry %d is not a free up group", g)
			}
		}
		if holes != m.staleFree {
			return fmt.Errorf("machine: stale counter %d != %d stack holes", m.staleFree, holes)
		}
	}
	if m.idx != nil {
		if got, want := m.idx.longestRun(), m.longestFreeRunDense(); got != want {
			return fmt.Errorf("machine: run index longest run %d, dense scan %d", got, want)
		}
		for g := range m.groups {
			free := m.groups[g] == -1 && m.health[g] == Up
			if (m.idx.pre[m.idx.size+g] == 1) != free {
				return fmt.Errorf("machine: run index leaf %d disagrees with group map", g)
			}
		}
	}
	if err := m.owner.Check(); err != nil {
		return fmt.Errorf("machine: owner table: %v", err)
	}
	if len(perJob) != m.owner.Len() {
		return fmt.Errorf("machine: owner table has %d jobs, group map has %d", m.owner.Len(), len(perJob))
	}
	for i := 0; i < m.owner.Len(); i++ {
		id, idx := m.owner.At(i)
		if perJob[id] != len(idx) {
			return fmt.Errorf("machine: job %d owner index %d groups, map says %d", id, len(idx), perJob[id])
		}
		for _, g := range idx {
			if m.groups[g] != id {
				return fmt.Errorf("machine: group %d owned by %d per index, %d per map", g, id, m.groups[g])
			}
		}
	}
	return nil
}
