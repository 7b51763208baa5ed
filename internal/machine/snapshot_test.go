package machine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// snapMachine builds a machine with a mixed allocation history so the free
// stack and owner table are in a non-trivial order.
func snapMachine() *Machine {
	m := New(320, 32)
	for _, a := range []struct{ id, size int }{{1, 64}, {2, 96}, {3, 32}, {4, 64}} {
		if err := m.Alloc(a.id, a.size); err != nil {
			panic(err)
		}
	}
	if err := m.Release(2); err != nil { // punch a hole: free stack order now matters
		panic(err)
	}
	if err := m.Resize(4, 32); err != nil {
		panic(err)
	}
	return m
}

func TestSnapshotRoundTripPreservesPlacement(t *testing.T) {
	m := snapMachine()
	r, err := FromSnapshot(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != m.Total() || r.Unit() != m.Unit() || r.Free() != m.Free() || r.Used() != m.Used() {
		t.Fatalf("geometry/occupancy mismatch: %d/%d free=%d vs %d/%d free=%d",
			r.Total(), r.Unit(), r.Free(), m.Total(), m.Unit(), m.Free())
	}
	for _, id := range []int{1, 3, 4} {
		if !reflect.DeepEqual(r.OwnedGroups(id), m.OwnedGroups(id)) {
			t.Errorf("job %d groups %v, want %v", id, r.OwnedGroups(id), m.OwnedGroups(id))
		}
	}
	// Free-stack order determines future handouts: both machines must give
	// the next allocation the same groups.
	if err := m.Alloc(9, 96); err != nil {
		t.Fatal(err)
	}
	if err := r.Alloc(9, 96); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.OwnedGroups(9), m.OwnedGroups(9)) {
		t.Errorf("post-restore allocation diverged: %v vs %v", r.OwnedGroups(9), m.OwnedGroups(9))
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRoundTripContiguous(t *testing.T) {
	m := NewContiguous(256, 32)
	m.EnableMigration()
	for _, a := range []struct{ id, size int }{{1, 64}, {2, 32}, {3, 64}} {
		if err := m.Alloc(a.id, a.size); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Release(2); err != nil {
		t.Fatal(err)
	}
	m.Compact()
	r, err := FromSnapshot(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contiguous() || r.Migrations() != m.Migrations() {
		t.Fatalf("contiguous/migration state lost: contiguous=%v migrations=%d want %d",
			r.Contiguous(), r.Migrations(), m.Migrations())
	}
	if !reflect.DeepEqual(r.OwnedGroups(1), m.OwnedGroups(1)) || !reflect.DeepEqual(r.OwnedGroups(3), m.OwnedGroups(3)) {
		t.Error("owned groups diverged after contiguous round trip")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFromSnapshotRejectsCorruption(t *testing.T) {
	base := func() Snapshot { return snapMachine().Snapshot() }
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"bad geometry", func(s *Snapshot) { s.Unit = 33 }},
		{"group count", func(s *Snapshot) { s.Groups = s.Groups[:4] }},
		{"owner out of range", func(s *Snapshot) { s.Owners[0].Groups[0] = 99 }},
		{"free stack duplicate", func(s *Snapshot) { s.FreeStack = append(s.FreeStack, s.FreeStack[0]) }},
		{"free stack not free", func(s *Snapshot) { s.FreeStack[0] = s.Owners[0].Groups[0] }},
		{"owner not in groups", func(s *Snapshot) { s.Owners[0].JobID = 77 }},
		{"owner listed twice", func(s *Snapshot) { s.Owners = append(s.Owners, s.Owners[0]) }},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(&s)
		if _, err := FromSnapshot(s); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", tc.name)
		}
	}
}

// Owners come out in ascending job-ID order whatever order the jobs were
// allocated and released in, so a snapshot's JSON is canonical and a
// round trip reproduces it byte for byte.
func TestSnapshotOwnersSortedAndStable(t *testing.T) {
	m := New(320, 32)
	for _, id := range []int{900, 7, 1 << 40, 64, 3, 1 << 20} {
		if err := m.Alloc(id, 32); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{7, 900} {
		if err := m.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Alloc(500, 64); err != nil {
		t.Fatal(err)
	}
	sn := m.Snapshot()
	var ids []int
	for _, o := range sn.Owners {
		ids = append(ids, o.JobID)
	}
	if want := []int{3, 64, 500, 1 << 20, 1 << 40}; !slices.Equal(ids, want) {
		t.Fatalf("snapshot owners %v, want %v", ids, want)
	}
	a, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	r, err := FromSnapshot(sn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("round trip changed the snapshot:\n%s\n%s", a, b)
	}
}
