// Package idtab maps job IDs to values with memory proportional to the
// entries currently stored, not to the largest ID ever seen. A session of
// the sharded dispatcher sees job IDs scattered over the whole workload's
// ID space while holding only a handful at once, so a table indexed by ID
// would cost O(max ID) per session.
package idtab

import "fmt"

// fib is 2^64 divided by the golden ratio: multiplying by it and keeping
// the top bits (Fibonacci hashing) spreads arithmetic progressions of IDs
// evenly. Masking the low bits would not: round-robin routing hands each
// cluster IDs strided by the cluster count, which would share one bucket.
const fib = 0x9E3779B97F4A7C15

type entry[V any] struct {
	id int
	v  V
}

// Table is a map from int ID to V. Entries live in a dense list
// (swap-removed on delete, so At enumerates them in no particular order)
// indexed by an open-addressed slot array with linear probing. The slot
// array doubles once it is half full and deletes shift later probes back
// instead of leaving tombstones, so a steady put/delete cycle allocates
// nothing. The zero Table is empty and ready to use.
type Table[V any] struct {
	ents  []entry[V]
	slots []int32 // entry position + 1; 0 marks an empty slot
	shift uint    // 64 - log2(len(slots))
}

// Reset removes every entry but keeps the table's storage, so refilling it
// to its former size allocates nothing.
func (t *Table[V]) Reset() {
	clear(t.ents) // drop the values' references
	t.ents = t.ents[:0]
	clear(t.slots)
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return len(t.ents) }

// At returns the i-th entry, 0 <= i < Len.
func (t *Table[V]) At(i int) (id int, v V) { return t.ents[i].id, t.ents[i].v }

func (t *Table[V]) home(id int) uint { return uint(uint64(id) * fib >> t.shift) }

// find returns the slot holding id and its entry position, or the empty
// slot that ends id's probe sequence and -1. The slot array must be
// non-empty.
func (t *Table[V]) find(id int) (slot uint, pos int) {
	mask := uint(len(t.slots) - 1)
	for i := t.home(id); ; i = (i + 1) & mask {
		p := int(t.slots[i]) - 1
		if p < 0 || t.ents[p].id == id {
			return i, p
		}
	}
}

// Get returns id's value, or the zero V and false when id is absent.
func (t *Table[V]) Get(id int) (V, bool) {
	if len(t.ents) > 0 {
		if _, p := t.find(id); p >= 0 {
			return t.ents[p].v, true
		}
	}
	var zero V
	return zero, false
}

// Put sets id's value, inserting the entry when id is absent.
func (t *Table[V]) Put(id int, v V) {
	var s uint
	if len(t.slots) > 0 {
		var p int
		if s, p = t.find(id); p >= 0 {
			t.ents[p].v = v
			return
		}
	}
	if 2*(len(t.ents)+1) > len(t.slots) {
		t.grow()
		s, _ = t.find(id)
	}
	t.ents = append(t.ents, entry[V]{id, v})
	t.slots[s] = int32(len(t.ents))
}

// Delete removes id's entry and reports whether it was present.
func (t *Table[V]) Delete(id int) bool {
	if len(t.ents) == 0 {
		return false
	}
	hole, pos := t.find(id)
	if pos < 0 {
		return false
	}
	// Swap-remove from the entry list: the last entry takes the deleted
	// one's position. Its slot is repointed before the entry moves, while
	// the deleted slot still names a different ID and cannot stop the probe.
	last := len(t.ents) - 1
	if pos != last {
		s, _ := t.find(t.ents[last].id)
		t.slots[s] = int32(pos + 1)
		t.ents[pos] = t.ents[last]
	}
	t.ents[last] = entry[V]{} // drop the value's references
	t.ents = t.ents[:last]
	// Backward-shift deletion: pull each later entry of the probe run into
	// the hole when the hole lies between that entry's home and its slot.
	mask := uint(len(t.slots) - 1)
	for j := (hole + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		h := t.home(t.ents[t.slots[j]-1].id)
		if (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = 0
	return true
}

// grow doubles the slot array (8 slots at first) and re-indexes every
// entry. The entry list is regrown with it, to the n/2 entries the new
// slot array indexes before the next doubling, so Put's append never
// reallocates on its own: a table costs two allocations per doubling.
func (t *Table[V]) grow() {
	n := 2 * len(t.slots)
	if n == 0 {
		n = 8
	}
	t.slots = make([]int32, n)
	if cap(t.ents) < n/2 {
		ents := make([]entry[V], len(t.ents), n/2)
		copy(ents, t.ents)
		t.ents = ents
	}
	t.shift = 64
	for ; n > 1; n >>= 1 {
		t.shift--
	}
	for i, e := range t.ents {
		s, _ := t.find(e.id)
		t.slots[s] = int32(i + 1)
	}
}

// Check verifies that the slot index and the entry list agree: every entry
// is reachable from its home slot, no two entries share an ID, and the
// index holds exactly one slot per entry.
func (t *Table[V]) Check() error {
	used := 0
	for _, p := range t.slots {
		if p != 0 {
			used++
			if p < 0 || int(p) > len(t.ents) {
				return fmt.Errorf("idtab: slot names entry %d of %d", p-1, len(t.ents))
			}
		}
	}
	if used != len(t.ents) {
		return fmt.Errorf("idtab: %d slots used for %d entries", used, len(t.ents))
	}
	for i, e := range t.ents {
		if _, p := t.find(e.id); p != i {
			return fmt.Errorf("idtab: entry %d (ID %d) not reachable from its home slot", i, e.id)
		}
	}
	return nil
}
