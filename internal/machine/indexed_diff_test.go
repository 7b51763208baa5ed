package machine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// diffRun drives an indexed contiguous machine through an operation
// stream and checks its run index against the dense O(G) scans after every
// step, failing the moment they diverge: findRun(n) for every n, and the
// longest free run. Alloc is the only consumer of findRun and Fits and
// FragmentedWaste the only consumers of the longest run, so agreement at
// every step means the machine places exactly as the dense first-fit
// scans would — the same pattern as the reference DPs and the profile
// differential.
type diffRun struct {
	t       testing.TB
	indexed *Machine
	live    []int       // job IDs currently allocated
	sizes   map[int]int // reference: job ID -> allocated processors
	nextID  int
}

// jobID maps the n-th allocation to a sparse job ID: strided by 64, as a
// cluster under round-robin routing sees them, with every other one
// pushed past 2^40.
func jobID(n int) int { return 5 + 64*n + (n%2)<<40 }

func newDiffRun(t testing.TB, total, unit int) *diffRun {
	return &diffRun{t: t, indexed: NewContiguous(total, unit), sizes: map[int]int{}}
}

// findRunDense is the dense O(G) first-fit scan: the first index of a
// free, healthy run of length need, or -1.
func (m *Machine) findRunDense(need int) int {
	cur := 0
	for i, g := range m.groups {
		if g == -1 && m.health[i] == Up {
			cur++
			if cur == need {
				return i - need + 1
			}
		} else {
			cur = 0
		}
	}
	return -1
}

// check validates the machine's invariants (CheckInvariants cross-checks
// every index leaf and the longest run against the dense scan), compares
// the index's other answers with the dense scans, and compares the per-job
// view with the reference sizes.
func (p *diffRun) check(op string) {
	p.t.Helper()
	m := p.indexed
	if err := m.CheckInvariants(); err != nil {
		p.t.Fatalf("after %s: invariants: %v", op, err)
	}
	if got, want := m.FragmentedWaste(), m.Free()-m.longestFreeRunDense()*m.Unit(); got != want {
		p.t.Fatalf("after %s: FragmentedWaste %d, dense scan says %d", op, got, want)
	}
	p.checkOwners(op)
	for n := 1; n <= m.NumGroups()+1; n++ {
		if ia, id := m.findRun(n), m.findRunDense(n); ia != id {
			p.t.Fatalf("after %s: findRun(%d) indexed %d != dense %d", op, n, ia, id)
		}
	}
}

// checkOwners compares the per-job view against the reference sizes: every
// allocated job holds exactly the groups the group map assigns it, and the
// group map names no job the reference does not.
func (p *diffRun) checkOwners(op string) {
	p.t.Helper()
	m := p.indexed
	want := map[int][]int{}
	for g, id := range m.Groups() {
		if id == -1 {
			continue
		}
		if _, ok := p.sizes[id]; !ok {
			p.t.Fatalf("after %s: group %d held by job %d, which holds nothing", op, g, id)
		}
		want[id] = append(want[id], g)
	}
	for id, size := range p.sizes {
		if got := m.Held(id); got != size {
			p.t.Fatalf("after %s: Held(%d) = %d, want %d", op, id, got, size)
		}
		got := m.OwnedGroups(id)
		slices.Sort(got)
		if !slices.Equal(got, want[id]) {
			p.t.Fatalf("after %s: OwnedGroups(%d) = %v, group map says %v", op, id, got, want[id])
		}
	}
}

// alloc places a job of the given group count and asserts it lands where
// the dense first-fit scan says, or fails exactly when the scan finds no
// run.
func (p *diffRun) alloc(groups int) {
	p.t.Helper()
	id := jobID(p.nextID)
	p.nextID++
	size := groups * p.indexed.Unit()
	at := p.indexed.findRunDense(groups)
	err := p.indexed.Alloc(id, size)
	if (err == nil) != (at >= 0) {
		p.t.Fatalf("alloc(%d,%d): err %v, dense scan found run at %d", id, size, err, at)
	}
	if err == nil {
		got := p.indexed.OwnedGroups(id)
		slices.Sort(got)
		if got[0] != at {
			p.t.Fatalf("alloc(%d,%d): placed at %v, dense first fit %d", id, size, got, at)
		}
		p.live = append(p.live, id)
		p.sizes[id] = size
	}
	p.check(fmt.Sprintf("alloc(%d,%d)", id, size))
}

func (p *diffRun) release(pick int) {
	p.t.Helper()
	if len(p.live) == 0 {
		return
	}
	i := pick % len(p.live)
	id := p.live[i]
	p.live[i] = p.live[len(p.live)-1]
	p.live = p.live[:len(p.live)-1]
	delete(p.sizes, id)
	if err := p.indexed.Release(id); err != nil {
		p.t.Fatalf("release(%d): %v", id, err)
	}
	p.check(fmt.Sprintf("release(%d)", id))
}

func (p *diffRun) resize(pick, groups int) {
	p.t.Helper()
	if len(p.live) == 0 {
		return
	}
	id := p.live[pick%len(p.live)]
	size := groups * p.indexed.Unit()
	if p.indexed.Resize(id, size) == nil {
		p.sizes[id] = size
	}
	p.check(fmt.Sprintf("resize(%d,%d)", id, size))
}

// fail takes groups out of service and releases the victims immediately,
// as the engine does, so the machine sits at an instant boundary (no
// Draining groups) after every step.
func (p *diffRun) fail(gs []int) {
	p.t.Helper()
	_, victims, err := p.indexed.FailGroups(gs)
	if err != nil {
		p.t.Fatalf("fail(%v): %v", gs, err)
	}
	for _, id := range victims {
		if err := p.indexed.Release(id); err != nil {
			p.t.Fatalf("fail(%v): victim release(%d): %v", gs, id, err)
		}
		for i, v := range p.live {
			if v == id {
				p.live[i] = p.live[len(p.live)-1]
				p.live = p.live[:len(p.live)-1]
				break
			}
		}
		delete(p.sizes, id)
	}
	p.check(fmt.Sprintf("fail(%v)", gs))
}

func (p *diffRun) repair(gs []int) {
	p.t.Helper()
	if _, err := p.indexed.RepairGroups(gs); err != nil {
		p.t.Fatalf("repair(%v): %v", gs, err)
	}
	p.check(fmt.Sprintf("repair(%v)", gs))
}

func (p *diffRun) compact() {
	p.t.Helper()
	p.indexed.Compact()
	p.check("compact")
}

// roundTrip snapshots the indexed machine, restores it, and verifies the
// restored copy re-snapshots identically and self-validates — the
// snapshot-at-random-prefix leg of the differential suite.
func (p *diffRun) roundTrip() {
	p.t.Helper()
	sn := p.indexed.Snapshot()
	m2, err := FromSnapshot(sn)
	if err != nil {
		p.t.Fatalf("round trip: %v", err)
	}
	if sn2 := m2.Snapshot(); !reflect.DeepEqual(sn, sn2) {
		p.t.Fatalf("round trip: snapshot changed:\nbefore %+v\nafter  %+v", sn, sn2)
	}
	if err := m2.CheckInvariants(); err != nil {
		p.t.Fatalf("round trip: restored invariants: %v", err)
	}
}

// step dispatches one operation from three driver bytes.
func (p *diffRun) step(op, a, b byte) {
	G := p.indexed.NumGroups()
	switch op % 7 {
	case 0, 1: // allocation-heavy mix keeps the machine busy
		p.alloc(int(a)%G + 1)
	case 2:
		p.release(int(a))
	case 3:
		p.resize(int(a), int(b)%G+1)
	case 4:
		p.fail([]int{int(a) % G, int(b) % G})
	case 5:
		p.repair([]int{int(a) % G, int(b) % G})
	case 6:
		p.compact()
	}
}

// TestIndexedMatchesDenseUnderTraffic is the seeded deterministic slice of
// the differential suite: a fixed LCG stream over every operation type.
func TestIndexedMatchesDenseUnderTraffic(t *testing.T) {
	for _, geo := range []struct{ total, unit int }{{320, 32}, {96, 8}, {33, 11}, {64, 1}} {
		t.Run(fmt.Sprintf("%d_%d", geo.total, geo.unit), func(t *testing.T) {
			p := newDiffRun(t, geo.total, geo.unit)
			rng := uint64(2026)
			next := func() byte {
				rng = rng*6364136223846793005 + 1442695040888963407
				return byte(rng >> 33)
			}
			for i := 0; i < 600; i++ {
				p.step(next(), next(), next())
				if i%97 == 0 {
					p.roundTrip()
				}
			}
		})
	}
}

// FuzzMachineIndexed lets the fuzzer steer the operation stream: byte
// triples select and parameterize operations, and every 16th step round-
// trips the indexed machine through its snapshot.
func FuzzMachineIndexed(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 9, 0, 2, 1, 0, 4, 0, 1, 6, 0, 0})
	f.Add([]byte{1, 255, 0, 4, 1, 2, 5, 1, 2, 3, 0, 2, 2, 0, 0})
	f.Add([]byte{0, 10, 0, 0, 10, 0, 4, 0, 5, 5, 0, 5, 0, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		p := newDiffRun(t, 320, 32)
		for i := 0; i+2 < len(ops); i += 3 {
			p.step(ops[i], ops[i+1], ops[i+2])
			if i%(3*16) == 0 {
				p.roundTrip()
			}
		}
	})
}

// TestScatterLazyFreeStack exercises the hole-marking free stack of scatter
// machines under fail/repair churn: invariants (stack/live/hole accounting)
// hold at every step and snapshots round-trip.
func TestScatterLazyFreeStack(t *testing.T) {
	m := New(320, 32)
	rng := uint64(7)
	next := func() int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng >> 33)
	}
	live := []int{}
	nextID := 0
	for i := 0; i < 2000; i++ {
		switch next() % 5 {
		case 0, 1:
			id := nextID
			nextID++
			if m.Alloc(id, (next()%10+1)*32) == nil {
				live = append(live, id)
			}
		case 2:
			if len(live) > 0 {
				k := next() % len(live)
				if err := m.Release(live[k]); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case 3:
			_, victims, err := m.FailGroups([]int{next() % 10, next() % 10})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range victims {
				if err := m.Release(id); err != nil {
					t.Fatal(err)
				}
				for k, v := range live {
					if v == id {
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
						break
					}
				}
			}
		case 4:
			if _, err := m.RepairGroups([]int{next() % 10, next() % 10}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i%111 == 0 {
			sn := m.Snapshot()
			m2, err := FromSnapshot(sn)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if sn2 := m2.Snapshot(); !reflect.DeepEqual(sn, sn2) {
				t.Fatalf("step %d: snapshot round trip diverged", i)
			}
		}
	}
}
