package machine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// diffPair drives an indexed contiguous machine and the retained dense
// reference through the same operation stream, failing the moment their
// observable state diverges. The dense machine is the pre-index
// implementation (forceDense restores its scan paths), so this is the
// differential harness the run index is validated against — the same
// pattern as the reference DPs (PR 1) and the profile differential (PR 4).
type diffPair struct {
	t       testing.TB
	indexed *Machine
	dense   *Machine
	live    []int       // job IDs currently allocated
	sizes   map[int]int // reference: job ID -> allocated processors
	nextID  int
}

// jobID maps the n-th allocation to a sparse job ID: strided by 64, as a
// cluster under round-robin routing sees them, with every other one
// pushed past 2^40.
func jobID(n int) int { return 5 + 64*n + (n%2)<<40 }

func newDiffPair(t testing.TB, total, unit int) *diffPair {
	ix := NewContiguous(total, unit)
	dn := NewContiguous(total, unit)
	dn.forceDense()
	return &diffPair{t: t, indexed: ix, dense: dn, sizes: map[int]int{}}
}

// check compares every piece of observable state and validates both
// machines' invariants (the indexed machine's CheckInvariants additionally
// cross-checks every index leaf and the root aggregate against the dense
// scan).
func (p *diffPair) check(op string) {
	p.t.Helper()
	if err := p.indexed.CheckInvariants(); err != nil {
		p.t.Fatalf("after %s: indexed invariants: %v", op, err)
	}
	if err := p.dense.CheckInvariants(); err != nil {
		p.t.Fatalf("after %s: dense invariants: %v", op, err)
	}
	type obs struct {
		Free, Used, Avail, Down, Waste, Longest int
		Groups                                  []int
	}
	a := obs{p.indexed.Free(), p.indexed.Used(), p.indexed.Available(), p.indexed.DownProcs(),
		p.indexed.FragmentedWaste(), p.indexed.longestFreeRun(), p.indexed.Groups()}
	b := obs{p.dense.Free(), p.dense.Used(), p.dense.Available(), p.dense.DownProcs(),
		p.dense.FragmentedWaste(), p.dense.longestFreeRun(), p.dense.Groups()}
	if !reflect.DeepEqual(a, b) {
		p.t.Fatalf("after %s: indexed %+v != dense %+v", op, a, b)
	}
	sa, sb := p.indexed.Snapshot(), p.dense.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		p.t.Fatalf("after %s: snapshots diverge:\nindexed %+v\ndense   %+v", op, sa, sb)
	}
	p.checkOwners(op, p.indexed)
	p.checkOwners(op, p.dense)
	for n := 1; n <= len(sa.Groups)+1; n++ {
		if ia, id := p.indexed.findRun(n), p.dense.findRun(n); ia != id {
			p.t.Fatalf("after %s: findRun(%d) indexed %d != dense %d", op, n, ia, id)
		}
	}
}

// checkOwners compares m's per-job view against the reference sizes: every
// allocated job holds exactly the groups the group map assigns it, and the
// group map names no job the reference does not.
func (p *diffPair) checkOwners(op string, m *Machine) {
	p.t.Helper()
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

// both applies one mutation to the pair and asserts the outcomes agree.
func (p *diffPair) alloc(groups int) {
	p.t.Helper()
	id := jobID(p.nextID)
	p.nextID++
	size := groups * p.indexed.Unit()
	ea := p.indexed.Alloc(id, size)
	eb := p.dense.Alloc(id, size)
	if (ea == nil) != (eb == nil) {
		p.t.Fatalf("alloc(%d,%d): indexed err %v, dense err %v", id, size, ea, eb)
	}
	if ea == nil {
		p.live = append(p.live, id)
		p.sizes[id] = size
	}
	p.check(fmt.Sprintf("alloc(%d,%d)", id, size))
}

func (p *diffPair) release(pick int) {
	p.t.Helper()
	if len(p.live) == 0 {
		return
	}
	i := pick % len(p.live)
	id := p.live[i]
	p.live[i] = p.live[len(p.live)-1]
	p.live = p.live[:len(p.live)-1]
	delete(p.sizes, id)
	if ea, eb := p.indexed.Release(id), p.dense.Release(id); (ea == nil) != (eb == nil) {
		p.t.Fatalf("release(%d): indexed err %v, dense err %v", id, ea, eb)
	}
	p.check(fmt.Sprintf("release(%d)", id))
}

func (p *diffPair) resize(pick, groups int) {
	p.t.Helper()
	if len(p.live) == 0 {
		return
	}
	id := p.live[pick%len(p.live)]
	size := groups * p.indexed.Unit()
	ea := p.indexed.Resize(id, size)
	eb := p.dense.Resize(id, size)
	if (ea == nil) != (eb == nil) {
		p.t.Fatalf("resize(%d,%d): indexed err %v, dense err %v", id, size, ea, eb)
	}
	if ea == nil {
		p.sizes[id] = size
	}
	p.check(fmt.Sprintf("resize(%d,%d)", id, size))
}

// fail takes groups out of service on both machines and releases the
// victims immediately, as the engine does, so the pair sits at an instant
// boundary (no Draining groups) after every step.
func (p *diffPair) fail(gs []int) {
	p.t.Helper()
	fa, va, ea := p.indexed.FailGroups(gs)
	fb, vb, eb := p.dense.FailGroups(gs)
	if (ea == nil) != (eb == nil) || fa != fb || !reflect.DeepEqual(va, vb) {
		p.t.Fatalf("fail(%v): indexed (%d,%v,%v) != dense (%d,%v,%v)", gs, fa, va, ea, fb, vb, eb)
	}
	for _, id := range va {
		if ea, eb := p.indexed.Release(id), p.dense.Release(id); (ea == nil) != (eb == nil) {
			p.t.Fatalf("fail(%v): victim release(%d): indexed err %v, dense err %v", gs, id, ea, eb)
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

func (p *diffPair) repair(gs []int) {
	p.t.Helper()
	ra, ea := p.indexed.RepairGroups(gs)
	rb, eb := p.dense.RepairGroups(gs)
	if (ea == nil) != (eb == nil) || ra != rb {
		p.t.Fatalf("repair(%v): indexed (%d,%v) != dense (%d,%v)", gs, ra, ea, rb, eb)
	}
	p.check(fmt.Sprintf("repair(%v)", gs))
}

func (p *diffPair) compact() {
	p.t.Helper()
	if ma, mb := p.indexed.Compact(), p.dense.Compact(); ma != mb {
		p.t.Fatalf("compact: indexed moved %d, dense moved %d", ma, mb)
	}
	p.check("compact")
}

// roundTrip snapshots the indexed machine, restores it, and verifies the
// restored copy re-snapshots identically and self-validates — the
// snapshot-at-random-prefix leg of the differential suite.
func (p *diffPair) roundTrip() {
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
func (p *diffPair) step(op, a, b byte) {
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
			p := newDiffPair(t, geo.total, geo.unit)
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
		p := newDiffPair(t, 320, 32)
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
