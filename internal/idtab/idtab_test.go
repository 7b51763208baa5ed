package idtab

import (
	"math/rand"
	"testing"
)

// model drives a Table and a map through the same operations, checking
// after every step that they agree and that the slot index is exact.
type model struct {
	t   testing.TB
	tab Table[int]
	ref map[int]int
}

func newModel(t testing.TB) *model { return &model{t: t, ref: map[int]int{}} }

func (m *model) check(op string, id int) {
	m.t.Helper()
	if m.tab.Len() != len(m.ref) {
		m.t.Fatalf("after %s(%d): Len %d, model %d", op, id, m.tab.Len(), len(m.ref))
	}
	// Check also counts the used slots against Len.
	if err := m.tab.Check(); err != nil {
		m.t.Fatalf("after %s(%d): %v", op, id, err)
	}
	v, ok := m.tab.Get(id)
	if want, has := m.ref[id]; ok != has || v != want {
		m.t.Fatalf("after %s(%d): Get = (%d,%v), model (%d,%v)", op, id, v, ok, want, has)
	}
}

func (m *model) step(op byte, id, v int) {
	m.t.Helper()
	switch op % 3 {
	case 0:
		m.tab.Put(id, v)
		m.ref[id] = v
		m.check("put", id)
	case 1:
		_, has := m.ref[id]
		if got := m.tab.Delete(id); got != has {
			m.t.Fatalf("delete(%d) = %v, model had it: %v", id, got, has)
		}
		delete(m.ref, id)
		m.check("delete", id)
	case 2:
		m.check("get", id)
	}
}

// final enumerates the table through At and compares it with the model.
func (m *model) final() {
	m.t.Helper()
	seen := map[int]bool{}
	for i := 0; i < m.tab.Len(); i++ {
		id, v := m.tab.At(i)
		if want, ok := m.ref[id]; !ok || v != want || seen[id] {
			m.t.Fatalf("At(%d) = (%d,%d): model (%d,%v), seen before %v", i, id, v, want, ok, seen[id])
		}
		seen[id] = true
	}
}

// idSpaces are the ID shapes the engine and machine see: dense sequential
// IDs (a single session), IDs strided by the cluster count (round-robin
// routing over 64 clusters) and IDs far from zero.
var idSpaces = []struct {
	name string
	id   func(k int) int
}{
	{"dense", func(k int) int { return k }},
	{"stride64", func(k int) int { return 64*k + 5 }},
	{"near2^40", func(k int) int { return 1<<40 + k }},
}

// TestTableMatchesMap is the differential test: random Put/Delete/Get over
// each ID space against a map model, with the live set kept small relative
// to the IDs drawn so the table grows, churns and wraps its probe runs.
func TestTableMatchesMap(t *testing.T) {
	for _, sp := range idSpaces {
		t.Run(sp.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			m := newModel(t)
			for i := 0; i < 5000; i++ {
				// A sliding window of candidate keys: IDs grow over the run
				// as they do in a session, and old ones get deleted.
				k := i/8 + rng.Intn(96)
				m.step(byte(rng.Intn(3)), sp.id(k), rng.Int())
			}
			m.final()
		})
	}
}

// FuzzIDTable lets the fuzzer steer the operation stream: byte triples pick
// the operation, the ID space and the key.
func FuzzIDTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 1, 0, 1, 2, 0, 2})
	f.Add([]byte{0, 1, 3, 0, 1, 7, 0, 1, 11, 1, 1, 3, 2, 1, 7})
	f.Add([]byte{0, 2, 0, 0, 2, 8, 0, 2, 16, 1, 2, 8, 1, 2, 0, 2, 2, 16})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newModel(t)
		for i := 0; i+2 < len(ops); i += 3 {
			sp := idSpaces[int(ops[i+1])%len(idSpaces)]
			m.step(ops[i], sp.id(int(ops[i+2])), i)
		}
		m.final()
	})
}

// TestSteadyCycleDoesNotAllocate pins the property that sizes the table by
// its live entries: once warm, a put/delete cycle whose IDs grow without
// bound allocates nothing. A table indexed by ID grows with every new ID.
func TestSteadyCycleDoesNotAllocate(t *testing.T) {
	var tab Table[[]int]
	const live = 10
	k := 0
	for ; k < live; k++ {
		tab.Put(64*k, nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			if !tab.Delete(64 * (k - live)) {
				t.Fatalf("ID %d missing", 64*(k-live))
			}
			tab.Put(64*k, nil)
			k++
		}
	})
	if allocs != 0 {
		t.Errorf("steady put/delete cycle allocated %.1f times per run", allocs)
	}
	if tab.Len() != live {
		t.Errorf("Len %d, want %d", tab.Len(), live)
	}
}

// TestGrowthAllocatesTwicePerDoubling pins the growth cost: filling a
// fresh table allocates the slot array and the entry list once per
// doubling and nothing in between. 100 entries need 256 slots: six
// doublings from 8, twelve allocations.
func TestGrowthAllocatesTwicePerDoubling(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		var tab Table[int]
		for id := 0; id < 100; id++ {
			tab.Put(id, id)
		}
	})
	if allocs != 12 {
		t.Errorf("filling 100 entries allocated %.0f times, want 12", allocs)
	}
}

// TestResetKeepsStorage checks that Reset empties the table and that
// refilling it to its former size allocates nothing.
func TestResetKeepsStorage(t *testing.T) {
	var tab Table[int]
	fill := func() {
		for id := 0; id < 100; id++ {
			tab.Put(7*id, id)
		}
	}
	fill()
	allocs := testing.AllocsPerRun(100, func() {
		tab.Reset()
		if tab.Len() != 0 {
			t.Fatalf("Len %d after Reset", tab.Len())
		}
		if _, ok := tab.Get(7); ok {
			t.Fatal("entry survived Reset")
		}
		fill()
	})
	if allocs != 0 {
		t.Errorf("Reset and refill allocated %.0f times, want 0", allocs)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	if v, ok := tab.Get(7 * 42); !ok || v != 42 {
		t.Errorf("Get after refill = %d, %v", v, ok)
	}
}
