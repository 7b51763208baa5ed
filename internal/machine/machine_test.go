package machine

import (
	"math/rand"
	"testing"
)

// Held returns the size of jobID's current allocation (0 if none).
func (m *Machine) Held(jobID int) int {
	return len(m.ownerOf(jobID)) * m.unit
}

func TestNewGeometry(t *testing.T) {
	m := New(320, 32)
	if m.Total() != 320 || m.Unit() != 32 || m.Free() != 320 || m.Used() != 0 {
		t.Fatalf("bad initial state: %+v", m)
	}
	if len(m.Groups()) != 10 {
		t.Fatalf("expected 10 node groups, got %d", len(m.Groups()))
	}
}

func TestNewBadGeometryPanics(t *testing.T) {
	for _, c := range []struct{ total, unit int }{{0, 1}, {-5, 1}, {320, 0}, {320, 33}, {100, 32}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.total, c.unit)
				}
			}()
			New(c.total, c.unit)
		}()
	}
}

func TestAllocRelease(t *testing.T) {
	m := New(320, 32)
	if err := m.Alloc(1, 96); err != nil {
		t.Fatal(err)
	}
	if m.Free() != 224 || m.Used() != 96 || m.Held(1) != 96 {
		t.Fatalf("after alloc: free=%d used=%d held=%d", m.Free(), m.Used(), m.Held(1))
	}
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	if m.Free() != 320 || m.Held(1) != 0 {
		t.Fatalf("after release: free=%d held=%d", m.Free(), m.Held(1))
	}
}

func TestAllocErrors(t *testing.T) {
	m := New(320, 32)
	if err := m.Alloc(1, 33); err == nil {
		t.Error("non-quantized allocation accepted")
	}
	if err := m.Alloc(1, 0); err == nil {
		t.Error("zero allocation accepted")
	}
	if err := m.Alloc(1, 352); err == nil {
		t.Error("oversized allocation accepted")
	}
	if err := m.Alloc(1, 320); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc(2, 32); err == nil {
		t.Error("allocation beyond free capacity accepted")
	}
	if err := m.Alloc(1, 32); err == nil {
		t.Error("double allocation for same job accepted")
	}
}

func TestReleaseUnknownErrors(t *testing.T) {
	m := New(320, 32)
	if err := m.Release(42); err == nil {
		t.Error("release of unknown job accepted")
	}
	m.Alloc(1, 32)
	m.Release(1)
	if err := m.Release(1); err == nil {
		t.Error("double release accepted")
	}
}

func TestFits(t *testing.T) {
	m := New(320, 32)
	m.Alloc(1, 288)
	if !m.Fits(32) {
		t.Error("32 should fit in 32 free")
	}
	if m.Fits(64) {
		t.Error("64 should not fit in 32 free")
	}
	if m.Fits(0) || m.Fits(-1) {
		t.Error("non-positive sizes never fit")
	}
}

func TestQuantize(t *testing.T) {
	m := New(320, 32)
	cases := []struct {
		in, want int
		ok       bool
	}{
		{1, 32, true}, {32, 32, true}, {33, 64, true}, {320, 320, true},
		{321, 0, false}, {0, 0, false}, {-3, 0, false},
	}
	for _, c := range cases {
		got, err := m.Quantize(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("Quantize(%d) = (%d, %v), want (%d, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestUtilization(t *testing.T) {
	m := New(320, 32)
	m.Alloc(1, 160)
	if u := m.Utilization(); u != 0.5 {
		t.Errorf("utilization %g, want 0.5", u)
	}
}

func TestResizeShrink(t *testing.T) {
	m := New(320, 32)
	m.Alloc(1, 128)
	if err := m.Resize(1, 64); err != nil {
		t.Fatal(err)
	}
	if m.Held(1) != 64 || m.Free() != 256 {
		t.Fatalf("after shrink: held=%d free=%d", m.Held(1), m.Free())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeGrow(t *testing.T) {
	m := New(320, 32)
	m.Alloc(1, 64)
	if err := m.Resize(1, 192); err != nil {
		t.Fatal(err)
	}
	if m.Held(1) != 192 || m.Free() != 128 {
		t.Fatalf("after grow: held=%d free=%d", m.Held(1), m.Free())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeGrowBeyondFree(t *testing.T) {
	m := New(320, 32)
	m.Alloc(1, 64)
	m.Alloc(2, 224)
	if err := m.Resize(1, 128); err == nil {
		t.Error("grow beyond free capacity accepted")
	}
	if m.Held(1) != 64 {
		t.Error("failed grow mutated allocation")
	}
}

func TestResizeErrors(t *testing.T) {
	m := New(320, 32)
	if err := m.Resize(9, 64); err == nil {
		t.Error("resize of unknown job accepted")
	}
	m.Alloc(1, 64)
	if err := m.Resize(1, 33); err == nil {
		t.Error("non-quantized resize accepted")
	}
	if err := m.Resize(1, 0); err == nil {
		t.Error("zero resize accepted")
	}
	if err := m.Resize(1, 64); err != nil {
		t.Error("no-op resize should succeed")
	}
}

func TestGroupOwnership(t *testing.T) {
	m := New(96, 32)
	m.Alloc(1, 64)
	m.Alloc(2, 32)
	groups := m.Groups()
	count := map[int]int{}
	for _, g := range groups {
		count[g]++
	}
	if count[1] != 2 || count[2] != 1 || count[-1] != 0 {
		t.Fatalf("group ownership wrong: %v", groups)
	}
	m.Release(1)
	count = map[int]int{}
	for _, g := range m.Groups() {
		count[g]++
	}
	if count[-1] != 2 || count[2] != 1 {
		t.Fatalf("groups after release wrong: %v", m.Groups())
	}
}

func TestUnitOneMachine(t *testing.T) {
	m := New(128, 1)
	if err := m.Alloc(1, 7); err != nil {
		t.Fatal(err)
	}
	if m.Free() != 121 {
		t.Fatalf("free = %d, want 121", m.Free())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: invariants hold under random alloc/release/resize traffic, and
// the free counter always equals total minus the sum of held allocations.
func TestPropertyInvariantsUnderTraffic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := New(320, 32)
	held := map[int]int{}
	nextID := 1
	for op := 0; op < 5000; op++ {
		switch {
		case len(held) == 0 || r.Float64() < 0.45:
			size := 32 * (1 + r.Intn(10))
			if size <= m.Free() {
				if err := m.Alloc(nextID, size); err != nil {
					t.Fatalf("op %d: alloc: %v", op, err)
				}
				held[nextID] = size
				nextID++
			}
		case r.Float64() < 0.7:
			for id := range held {
				if err := m.Release(id); err != nil {
					t.Fatalf("op %d: release: %v", op, err)
				}
				delete(held, id)
				break
			}
		default:
			for id, size := range held {
				want := 32 * (1 + r.Intn(10))
				err := m.Resize(id, want)
				if want <= size || want-size <= m.Free()+0 {
					// shrink or affordable grow may still fail only if
					// grow exceeded free; recheck coherently below.
					_ = err
				}
				if err == nil {
					held[id] = want
				}
				break
			}
		}
		sum := 0
		for _, s := range held {
			sum += s
		}
		if m.Free() != 320-sum {
			t.Fatalf("op %d: free=%d, want %d", op, m.Free(), 320-sum)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

func TestContiguousAllocUsesRuns(t *testing.T) {
	m := NewContiguous(320, 32)
	if !m.Contiguous() {
		t.Fatal("flag lost")
	}
	m.Alloc(1, 96)
	g := m.Groups()
	if g[0] != 1 || g[1] != 1 || g[2] != 1 {
		t.Fatalf("allocation not at the first run: %v", g)
	}
}

func TestContiguousFragmentationBlocks(t *testing.T) {
	m := NewContiguous(320, 32)
	// Fill alternating pairs to fragment: jobs of 1 group each.
	for i := 0; i < 5; i++ {
		if err := m.Alloc(10+i, 32); err != nil {
			t.Fatal(err)
		}
	}
	// Free groups are 5..9 contiguous (first-fit packed 0..4): release the
	// middle of the allocated prefix to fragment.
	m.Release(12) // frees group 2
	// Free: group 2 and groups 5..9 => longest run 5, free 6*32=192.
	if !m.Fits(5 * 32) {
		t.Error("160 should fit in the 5-run")
	}
	if m.Fits(6 * 32) {
		t.Error("192 must NOT fit contiguously despite 192 free")
	}
	if m.FragmentedWaste() != 32 {
		t.Errorf("fragmented waste = %d, want 32", m.FragmentedWaste())
	}
	if err := m.Alloc(99, 6*32); err == nil {
		t.Error("fragmented allocation accepted")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactDefragments(t *testing.T) {
	m := NewContiguous(320, 32)
	for i := 0; i < 5; i++ {
		m.Alloc(10+i, 32)
	}
	m.Release(11)
	m.Release(13)
	// Free: groups 1, 3, 5..9 => longest run 5.
	if m.Fits(7 * 32) {
		t.Fatal("224 should not fit before compaction")
	}
	moved := m.Compact()
	if moved == 0 {
		t.Fatal("compaction moved nothing")
	}
	if !m.Fits(7 * 32) {
		t.Error("224 should fit after compaction")
	}
	if m.Migrations() != moved {
		t.Errorf("migrations counter %d, want %d", m.Migrations(), moved)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remaining jobs keep their sizes.
	for _, id := range []int{10, 12, 14} {
		if m.Held(id) != 32 {
			t.Errorf("job %d held %d after compaction", id, m.Held(id))
		}
	}
}

func TestCompactNoopWhenPacked(t *testing.T) {
	m := NewContiguous(320, 32)
	m.Alloc(1, 64)
	m.Alloc(2, 64)
	if moved := m.Compact(); moved != 0 {
		t.Errorf("packed machine compaction moved %d", moved)
	}
}

func TestContiguousResizeGrowsOnlyAdjacent(t *testing.T) {
	m := NewContiguous(320, 32)
	m.Alloc(1, 64) // groups 0,1
	m.Alloc(2, 32) // group 2
	if err := m.Resize(1, 128); err == nil {
		t.Error("grow across job 2 accepted on contiguous machine")
	}
	m.Release(2)
	if err := m.Resize(1, 128); err != nil {
		t.Errorf("adjacent grow failed: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScatterFitsIgnoresFragmentation(t *testing.T) {
	m := New(320, 32)
	for i := 0; i < 5; i++ {
		m.Alloc(10+i, 32)
	}
	m.Release(12)
	if !m.Fits(6 * 32) {
		t.Error("scatter machine must fit any free capacity")
	}
	if m.FragmentedWaste() != 0 {
		t.Error("scatter machine has no fragmented waste")
	}
}
