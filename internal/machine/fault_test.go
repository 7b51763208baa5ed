package machine

import (
	"reflect"
	"testing"
)

// GroupHealth returns node group g's state.
func (m *Machine) GroupHealth(g int) GroupState { return m.health[g] }

// checked wraps CheckInvariants as a test helper.
func checked(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailFreeGroupsShrinksCapacity(t *testing.T) {
	m := New(320, 32)
	failed, victims, err := m.FailGroups([]int{0, 5})
	if err != nil || failed != 2 || len(victims) != 0 {
		t.Fatalf("FailGroups = (%d, %v, %v)", failed, victims, err)
	}
	if m.Free() != 320-64 || m.Available() != 320-64 || m.DownProcs() != 64 {
		t.Fatalf("free=%d avail=%d down=%d", m.Free(), m.Available(), m.DownProcs())
	}
	if m.GroupHealth(0) != Down || m.GroupHealth(5) != Down || m.GroupHealth(1) != Up {
		t.Fatalf("health: %v %v %v", m.GroupHealth(0), m.GroupHealth(5), m.GroupHealth(1))
	}
	checked(t, m)

	// Failing an already-down group changes nothing.
	failed, _, err = m.FailGroups([]int{5})
	if err != nil || failed != 0 {
		t.Fatalf("re-fail = (%d, %v)", failed, err)
	}
	checked(t, m)

	// Allocation must avoid the down groups.
	if err := m.Alloc(1, 256); err != nil {
		t.Fatal(err)
	}
	for _, g := range m.OwnedGroups(1) {
		if g == 0 || g == 5 {
			t.Fatalf("job allocated down group %d", g)
		}
	}
	checked(t, m)

	repaired, err := m.RepairGroups([]int{0, 5, 0})
	if err != nil || repaired != 2 {
		t.Fatalf("RepairGroups = (%d, %v)", repaired, err)
	}
	if m.Free() != 64 || m.DownProcs() != 0 || m.Available() != 320 {
		t.Fatalf("after repair free=%d down=%d avail=%d", m.Free(), m.DownProcs(), m.Available())
	}
	checked(t, m)
}

func TestFailOccupiedGroupDrainsUntilRelease(t *testing.T) {
	m := New(128, 32)
	if err := m.Alloc(7, 64); err != nil {
		t.Fatal(err)
	}
	held := m.OwnedGroups(7)
	failed, victims, err := m.FailGroups([]int{held[0]})
	if err != nil || failed != 1 {
		t.Fatalf("FailGroups = (%d, %v, %v)", failed, victims, err)
	}
	if len(victims) != 1 || victims[0] != 7 {
		t.Fatalf("victims = %v, want [7]", victims)
	}
	if m.GroupHealth(held[0]) != Draining {
		t.Fatalf("group %d = %v, want Draining", held[0], m.GroupHealth(held[0]))
	}
	if m.Available() != 96 || m.Used() != 64 {
		t.Fatalf("avail=%d used=%d", m.Available(), m.Used())
	}
	checked(t, m)

	if err := m.Release(7); err != nil {
		t.Fatal(err)
	}
	if m.GroupHealth(held[0]) != Down {
		t.Fatalf("after release group %d = %v, want Down", held[0], m.GroupHealth(held[0]))
	}
	if m.Free() != 96 || m.Used() != 0 || m.DownProcs() != 32 {
		t.Fatalf("after release free=%d used=%d down=%d", m.Free(), m.Used(), m.DownProcs())
	}
	checked(t, m)
}

func TestFailGroupsDeduplicatesVictims(t *testing.T) {
	m := New(128, 32)
	if err := m.Alloc(3, 128); err != nil {
		t.Fatal(err)
	}
	_, victims, err := m.FailGroups([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0] != 3 {
		t.Fatalf("victims = %v, want [3]", victims)
	}
	checked(t, m)
}

func TestFailRepairBoundsChecked(t *testing.T) {
	m := New(64, 32)
	if _, _, err := m.FailGroups([]int{2}); err == nil {
		t.Fatal("fail of out-of-range group succeeded")
	}
	if _, err := m.RepairGroups([]int{-1}); err == nil {
		t.Fatal("repair of out-of-range group succeeded")
	}
	checked(t, m)
}

func TestRepairSkipsDrainingGroup(t *testing.T) {
	m := New(64, 32)
	if err := m.Alloc(1, 32); err != nil {
		t.Fatal(err)
	}
	g := m.OwnedGroups(1)[0]
	if _, _, err := m.FailGroups([]int{g}); err != nil {
		t.Fatal(err)
	}
	repaired, err := m.RepairGroups([]int{g})
	if err != nil || repaired != 0 {
		t.Fatalf("repair of draining group = (%d, %v), want (0, nil)", repaired, err)
	}
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	if repaired, _ := m.RepairGroups([]int{g}); repaired != 1 {
		t.Fatal("down group not repairable after release")
	}
	checked(t, m)
}

func TestContiguousFitsSkipsDownGroups(t *testing.T) {
	m := NewContiguous(160, 32)
	// Fail the middle group: two free runs of 2 remain.
	if _, _, err := m.FailGroups([]int{2}); err != nil {
		t.Fatal(err)
	}
	if m.Fits(96) {
		t.Fatal("96 procs should not fit contiguously around a down group")
	}
	if !m.Fits(64) {
		t.Fatal("64 procs should fit")
	}
	if err := m.Alloc(1, 64); err != nil {
		t.Fatal(err)
	}
	for _, g := range m.OwnedGroups(1) {
		if g == 2 {
			t.Fatal("contiguous alloc used down group")
		}
	}
	checked(t, m)
}

func TestCompactSuspendedWhileDown(t *testing.T) {
	m := NewContiguous(160, 32)
	if err := m.Alloc(1, 32); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.FailGroups([]int{3}); err != nil {
		t.Fatal(err)
	}
	if moved := m.Compact(); moved != 0 {
		t.Fatalf("Compact moved %d jobs with a down group present", moved)
	}
	checked(t, m)
}

func TestSnapshotRoundTripWithDownGroups(t *testing.T) {
	m := New(320, 32)
	if err := m.Alloc(1, 96); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.FailGroups([]int{9, 8}); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.Health == nil {
		t.Fatal("snapshot with down groups must carry health")
	}
	back, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Free() != m.Free() || back.DownProcs() != m.DownProcs() || back.Available() != m.Available() {
		t.Fatalf("restore mismatch: free %d/%d down %d/%d", back.Free(), m.Free(), back.DownProcs(), m.DownProcs())
	}
	if back.GroupHealth(9) != Down || back.GroupHealth(8) != Down {
		t.Fatal("restored health lost down groups")
	}
	checked(t, back)
}

func TestSnapshotOmitsHealthWhenAllUp(t *testing.T) {
	m := New(320, 32)
	if s := m.Snapshot(); s.Health != nil {
		t.Fatal("all-up snapshot should omit health")
	}
}

func TestFromSnapshotRejectsCorruptHealth(t *testing.T) {
	m := New(64, 32)
	if _, _, err := m.FailGroups([]int{0}); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()

	bad := s
	bad.Health = []GroupState{Down} // wrong length
	if _, err := FromSnapshot(bad); err == nil {
		t.Fatal("short health accepted")
	}

	bad = s
	bad.Health = []GroupState{Draining, Up}
	if _, err := FromSnapshot(bad); err == nil {
		t.Fatal("draining health accepted")
	}

	bad = s
	bad.Health = []GroupState{Up, Down}
	bad.Groups = []int{-1, 4} // down group owned
	bad.Owners = []OwnerSnap{{JobID: 4, Groups: []int{1}}}
	bad.FreeStack = []int{0}
	if _, err := FromSnapshot(bad); err == nil {
		t.Fatal("owned down group accepted")
	}

	bad = s
	bad.FreeStack = []int{0, 1} // stack includes the down group 0
	if _, err := FromSnapshot(bad); err == nil {
		t.Fatal("free stack over down group accepted")
	}
}

// TestResetMatchesNew checks that Reset undoes allocations, failures,
// migrations and a scrambled free stack: the machine snapshots exactly as
// a new one and hands out the same groups.
func TestResetMatchesNew(t *testing.T) {
	for _, contiguous := range []bool{false, true} {
		newMachine := New
		if contiguous {
			newMachine = NewContiguous
		}
		m := newMachine(320, 32)
		m.EnableMigration()
		for id := 1; id <= 4; id++ {
			if err := m.Alloc(id, 64); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Release(2); err != nil {
			t.Fatal(err)
		}
		m.Compact()
		if _, _, err := m.FailGroups([]int{0, 9}); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		checked(t, m)
		fresh := newMachine(320, 32)
		fresh.EnableMigration()
		if got, want := m.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("contiguous=%v: reset machine %+v, new machine %+v", contiguous, got, want)
		}
		for _, mm := range []*Machine{m, fresh} {
			if err := mm.Alloc(7, 96); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := m.OwnedGroups(7), fresh.OwnedGroups(7); !reflect.DeepEqual(got, want) {
			t.Errorf("contiguous=%v: reset machine allocated %v, new machine %v", contiguous, got, want)
		}
	}
}
