package simkit

import (
	"fmt"
	"slices"
	"testing"
)

// mergeRig drives one engine through a scripted mix of static and dynamic
// scheduling. The stream rig registers static events with AtStatic; the
// reference rig schedules the same events with AtArg, so it runs on the
// heap alone. Labels name events identically in both rigs as long as their
// dispatch orders agree, which is what FuzzStreamMerge checks.
type mergeRig struct {
	e      *Engine
	stream bool
	script []byte
	// log records dispatched labels, and successful cancellations as
	// -1-label, in the order they happened.
	log     []int
	labels  int
	handles map[int]Handle
}

// maxMergeLabels bounds the events handlers may spawn.
const maxMergeLabels = 400

func newMergeRig(stream bool, script []byte) *mergeRig {
	r := &mergeRig{e: New(), stream: stream, script: script, handles: map[int]Handle{}}
	r.e.OnStatic(func(now Time, _ StaticKind, idx int) { r.fire(now, idx) })
	return r
}

func (r *mergeRig) label() int {
	r.labels++
	return r.labels - 1
}

func (r *mergeRig) fireArg(now Time, arg any) { r.fire(now, arg.(int)) }

// fire records the label and runs its scripted reaction: schedule a child
// at now through a shared handler, a later one through a closure with a
// nil argument, and cancel a dynamic event.
func (r *mergeRig) fire(now Time, l int) {
	r.log = append(r.log, l)
	if len(r.script) == 0 {
		return
	}
	a := r.script[l%len(r.script)]
	if a&1 != 0 && r.labels < maxMergeLabels {
		c := r.label()
		r.handles[c] = r.e.AtArg(now, r.fireArg, c)
	}
	if a&2 != 0 && r.labels < maxMergeLabels {
		c := r.label()
		r.handles[c] = r.e.AtArg(now+Time(a>>4%8), func(now Time, _ any) { r.fire(now, c) }, nil)
	}
	if a&4 != 0 && r.labels > 0 {
		r.cancel(int(a>>3) * 7 % r.labels)
	}
}

func (r *mergeRig) cancel(l int) {
	if r.e.Cancel(r.handles[l]) {
		r.log = append(r.log, -1-l)
	}
}

// schedule applies one pre-dispatch operation.
func (r *mergeRig) schedule(op byte, t Time, victim int) {
	switch op % 4 {
	case 0:
		l := r.label()
		if r.stream {
			r.e.AtStatic(t, StaticKind(1+op>>2&1), l)
		} else {
			r.e.AtArg(t, r.fireArg, l)
		}
	case 1:
		l := r.label()
		r.handles[l] = r.e.AtArg(t, func(now Time, _ any) { r.fire(now, l) }, nil)
	case 2:
		l := r.label()
		r.handles[l] = r.e.AtArg(t, r.fireArg, l)
	case 3:
		if r.labels > 0 {
			r.cancel(victim % r.labels)
		}
	}
}

// pendingKey is one PendingInOrder entry as the two rigs can compare it.
type pendingKey struct {
	label int
	time  Time
}

// pending projects PendingInOrder onto (label, time); closure events, whose
// argument is nil in both rigs, read as label -1.
func (r *mergeRig) pending() []pendingKey {
	var out []pendingKey
	for _, pe := range r.e.PendingInOrder() {
		k := pendingKey{label: -1, time: pe.Time}
		switch {
		case pe.Kind != 0:
			k.label = pe.Index
		case pe.Arg != nil:
			k.label = pe.Arg.(int)
		}
		out = append(out, k)
	}
	return out
}

// FuzzStreamMerge differentially tests the static source: random mixes of
// AtStatic, AtArg and cancellations before the first dispatch, then
// handlers that schedule at now and later and cancel dynamic events, must
// dispatch, count and list pending events exactly as a reference engine
// that schedules everything with AtArg — compared at random stop points.
func FuzzStreamMerge(f *testing.F) {
	// ops: a count, then (op, time, victim) triples, then one byte per
	// round choosing StepTimestamp or a run of Steps.
	f.Add([]byte{6, 1, 3, 0, 0, 3, 0, 2, 3, 0, 4, 1, 0, 0, 0, 0, 3, 0, 1, 2, 0x80, 1}, []byte{1, 2, 4, 0, 7})
	f.Add([]byte{5, 2, 4, 0, 0, 4, 0, 1, 2, 0, 4, 4, 0, 15, 9, 0, 0x81, 3}, []byte{3, 0x25, 0, 0x16})
	f.Add([]byte{4, 3, 0, 0, 1, 0, 0, 0, 0, 0, 3, 0, 0}, []byte{0x17, 5})
	f.Add([]byte{0x30, 0x31}, []byte{0x30})
	f.Add([]byte{}, []byte{})
	// Load's shape: three ascending runs (arrivals, commands, faults) whose
	// times tie across runs at 0, 2, 5 and 9, with a dynamic event at a
	// tied instant, drained by timestamps and by single steps.
	load := []byte{12,
		0, 0, 0, 0, 2, 0, 0, 5, 0, 0, 9, 0,
		4, 2, 0, 4, 5, 0, 4, 7, 0,
		2, 5, 0,
		0, 0, 0, 0, 5, 0, 0, 9, 0, 0, 12, 0,
		0x80, 3, 0x80, 7, 0x80}
	f.Add(load, []byte{})
	f.Add(load, []byte{1, 0x22, 4, 0x13})
	// Three ascending runs after a GrowStatic, with ties inside a run (4,
	// 6) as well as across runs (1, 4, 6).
	f.Add([]byte{12,
		15, 4, 0,
		0, 1, 0, 0, 4, 0, 0, 4, 0,
		4, 1, 0, 4, 4, 0, 4, 6, 0, 4, 6, 0,
		0, 1, 0, 0, 4, 0, 0, 6, 0, 0, 15, 0,
		1, 2, 3, 0x80}, []byte{3, 0x25, 0, 0x16})
	f.Fuzz(func(t *testing.T, ops, script []byte) {
		stream, ref := newMergeRig(true, script), newMergeRig(false, script)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		n := int(next()) % 64
		for i := 0; i < n; i++ {
			op, at, victim := next(), Time(next()%16), int(next())
			if op%16 == 15 {
				stream.e.GrowStatic(int(at))
			}
			stream.schedule(op, at, victim)
			ref.schedule(op, at, victim)
		}
		check := func(where string) {
			t.Helper()
			if !slices.Equal(stream.log, ref.log) {
				t.Fatalf("%s: dispatch log %v, reference %v", where, stream.log, ref.log)
			}
			if stream.e.Pending() != ref.e.Pending() {
				t.Fatalf("%s: Pending %d, reference %d", where, stream.e.Pending(), ref.e.Pending())
			}
			if got, want := stream.pending(), ref.pending(); !slices.Equal(got, want) {
				t.Fatalf("%s: PendingInOrder %v, reference %v", where, got, want)
			}
			st, sok := stream.e.PeekTime()
			rt, rok := ref.e.PeekTime()
			if st != rt || sok != rok || stream.e.Now() != ref.e.Now() ||
				stream.e.Dispatched() != ref.e.Dispatched() {
				t.Fatalf("%s: peek %d/%v now %d dispatched %d, reference %d/%v %d %d", where,
					st, sok, stream.e.Now(), stream.e.Dispatched(), rt, rok, ref.e.Now(), ref.e.Dispatched())
			}
		}
		check("after scheduling")
		for round := 0; ; round++ {
			b := next()
			switch {
			case b&0x80 != 0:
				_, sok := stream.e.StepTimestamp()
				_, rok := ref.e.StepTimestamp()
				if sok != rok {
					t.Fatalf("round %d: StepTimestamp %v, reference %v", round, sok, rok)
				}
			default:
				for k := 0; k <= int(b%8); k++ {
					if s, r := stream.e.Step(), ref.e.Step(); s != r {
						t.Fatalf("round %d: Step %v, reference %v", round, s, r)
					}
				}
			}
			check(fmt.Sprintf("round %d", round))
			if ref.e.Pending() == 0 {
				break
			}
		}
	})
}

// AtStatic after the first dispatch would have to insert behind the
// cursor; the kernel refuses it.
func TestAtStaticAfterDispatchPanics(t *testing.T) {
	e := New()
	e.OnStatic(func(Time, StaticKind, int) {})
	e.AtStatic(1, 1, 0)
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("AtStatic after the first dispatch did not panic")
		}
	}()
	e.AtStatic(5, 1, 1)
}

// RestoreClock's "nothing pending before now" rule covers static events.
func TestRestoreClockRejectsPastStaticEvents(t *testing.T) {
	e := New()
	e.OnStatic(func(Time, StaticKind, int) {})
	e.AtStatic(20, 1, 0)
	e.AtStatic(5, 1, 1)
	e.AtArg(30, func(Time, any) {}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreClock with a static event before now did not panic")
		}
	}()
	e.RestoreClock(10, 3)
}

// A Reset engine keeps its static source and run cursors: registering
// the same run shape again, and draining it, allocates nothing.
func TestResetReregisterAllocatesNothing(t *testing.T) {
	e := New()
	e.OnStatic(func(Time, StaticKind, int) {})
	runs := [][]Time{{0, 3, 3, 9}, {1, 3, 8}, {0, 2, 3, 20}}
	load := func() {
		e.Reset()
		for _, run := range runs {
			for i, at := range run {
				e.AtStatic(at, 1, i)
			}
		}
		if e.Run(); e.Dispatched() != 11 {
			t.Fatalf("dispatched %d static events, want 11", e.Dispatched())
		}
	}
	load()
	if n := testing.AllocsPerRun(20, load); n != 0 {
		t.Fatalf("re-registering after Reset allocates %v times per run, want 0", n)
	}
}
