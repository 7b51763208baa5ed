package core

import (
	"fmt"
	"math/rand"
	"testing"

	"elastisched/internal/job"
)

// sameSelection fails the test unless the optimized and reference
// selections are identical by pointer sequence.
func sameSelection(t *testing.T, label string, got, want []*job.Job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: selection length %d, reference %d (got %v, want %v)",
			label, len(got), len(want), ids(got), ids(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: selection[%d] = job %d, reference job %d (got %v, want %v)",
				label, i, got[i].ID, want[i].ID, ids(got), ids(want))
		}
	}
}

// randWindow draws a DP candidate window: a mix of BlueGene-like
// 32-quantized and SDSC-like irregular sizes, short and long durations.
// Windows are kept small enough that the naive reference oracle stays
// cheap — the equivalence argument does not depend on scale, only on
// which fast-path branches are exercised, and all are at these sizes.
func randWindow(r *rand.Rand) []*job.Job {
	n := 1 + r.Intn(8)
	quantized := r.Intn(2) == 0
	cands := make([]*job.Job, n)
	for i := range cands {
		size := 1 + r.Intn(8)
		if quantized {
			size *= 32
		}
		cands[i] = &job.Job{
			ID:       i + 1,
			Size:     size,
			Dur:      int64(1 + r.Intn(200)),
			ReqStart: -1,
		}
	}
	return cands
}

// TestDPEquivalenceRandomized is the differential property test for the
// fast-path packing engine: on >10k randomized windows the optimized
// BasicDP/ReservationDP (memo, dimension collapse, bitset kernel) must
// return exactly the reference implementation's selection. A quarter of
// the trials immediately re-solve the same window, driving the memo-hit
// path through the same oracle.
func TestDPEquivalenceRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var s Scratch
	const trials = 12000
	for trial := 0; trial < trials; trial++ {
		cands := randWindow(r)
		maxSize, total := 0, 0
		for _, j := range cands {
			if j.Size > maxSize {
				maxSize = j.Size
			}
			total += j.Size
		}
		// m always admits each candidate individually (the Context.Window
		// invariant) but usually not the whole window.
		m := maxSize + r.Intn(total+1)

		if trial%2 == 0 {
			got := BasicDP(cands, m, &s)
			want := referenceBasicDP(cands, m)
			sameSelection(t, "BasicDP", got, want)
			if r.Intn(4) == 0 {
				sameSelection(t, "BasicDP memo", BasicDP(cands, m, &s), want)
			}
			continue
		}

		frec := r.Intn(m+1) - 1 // occasionally negative, testing the clamp
		now := int64(r.Intn(100))
		fret := now + int64(r.Intn(250)) // straddles the duration range
		got := ReservationDP(cands, m, frec, fret, now, &s)
		want := referenceReservationDP(cands, m, frec, fret, now)
		sameSelection(t, "ReservationDP", got, want)
		if r.Intn(4) == 0 {
			sameSelection(t, "ReservationDP memo",
				ReservationDP(cands, m, frec, fret, now, &s), want)
		}
	}
}

// TestDPEquivalenceLargeWindows runs the differential at the full 50-job
// lookahead window, where the reachability planes span many words: unit-1
// sizes with m and frec up to 192 give planes of up to 1,162 words. The
// pinned windows force the word-boundary cases: with frec = 31 the row
// stride is 63, so a size-1 candidate that still runs at the freeze end
// shifts its plane by exactly 64 bits (size 2 by 128), and with unit-1
// sizes Basic_DP shifts by the sizes 64 and 128 themselves. Zero-size
// candidates, which the reference takes even once the capacity is used
// up, are spread through the pinned window. Every window is re-solved
// once to drive the memo-hit path.
func TestDPEquivalenceLargeWindows(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	var s Scratch
	check := func(label string, cands []*job.Job, m, frec int, fret, now int64) {
		t.Helper()
		wantB := referenceBasicDP(cands, m)
		sameSelection(t, label+" BasicDP", BasicDP(cands, m, &s), wantB)
		sameSelection(t, label+" BasicDP memo", BasicDP(cands, m, &s), wantB)
		wantR := referenceReservationDP(cands, m, frec, fret, now)
		sameSelection(t, label+" ReservationDP", ReservationDP(cands, m, frec, fret, now, &s), wantR)
		sameSelection(t, label+" ReservationDP memo", ReservationDP(cands, m, frec, fret, now, &s), wantR)
	}

	pinned := make([]*job.Job, DefaultLookahead)
	for i := range pinned {
		dur := int64(50) // finishes before the freeze end
		if i%3 != 0 {
			dur = 500 // still runs at the freeze end
		}
		size := [...]int{1, 2, 64, 37, 5, 128, 17, 90, 0}[i%9]
		pinned[i] = &job.Job{ID: i + 1, Size: size, Dur: dur, ReqStart: -1}
	}
	for _, frec := range []int{31, 0, 192} {
		check(fmt.Sprintf("pinned frec=%d", frec), pinned, 150, frec, 100, 0)
	}

	for trial := 0; trial < 200; trial++ {
		quantized := trial%2 == 0
		cands := make([]*job.Job, DefaultLookahead)
		maxSize := 0
		for i := range cands {
			size := 1 + r.Intn(128)
			if quantized {
				size = 32 * (1 + r.Intn(6))
			}
			maxSize = max(maxSize, size)
			cands[i] = &job.Job{ID: i + 1, Size: size, Dur: int64(1 + r.Intn(200)), ReqStart: -1}
		}
		m := maxSize + r.Intn(193-maxSize)
		frec := r.Intn(193)
		if trial%8 == 1 {
			frec = 0
		}
		now := int64(r.Intn(100))
		check(fmt.Sprintf("trial %d", trial), cands, m, frec, now+int64(r.Intn(250)), now)
	}
}

// TestPackFootprint is the tripwire for the packing kernel's memory: one
// general two-constraint solve over BenchmarkReservationDPCold's first
// window (50 jobs, M = 320 in units of 32, frec = 160) must leave at most
// 128 words in the Scratch's bitset buffer. The (n+1)x(C1+1)x(C2+1) int32
// value table it replaced held 13 KB for the same solve.
func TestPackFootprint(t *testing.T) {
	cands := randJobs(DefaultLookahead, rand.New(rand.NewSource(1)))
	const m, frec, fret = 320, 160, 5000
	total1, total2, full := 0, 0, 0
	for _, j := range cands {
		total1 += j.Size
		if j.Dur >= fret {
			total2 += j.Size
			full++
		}
	}
	if total1 <= m || total2 <= frec || full == len(cands) {
		t.Fatalf("window collapses a dimension (total size %d, freeze demand %d, %d of %d full); want the general program",
			total1, total2, full, len(cands))
	}
	var s Scratch
	sameSelection(t, "ReservationDP", ReservationDP(cands, m, frec, fret, 0, &s),
		referenceReservationDP(cands, m, frec, fret, 0))
	if words := cap(s.bits); words == 0 || words > 128 {
		t.Fatalf("bitset buffer holds %d words after one solve, want 1..128", words)
	}
}

// TestDPEquivalenceCollapseBranches pins each ReservationDP collapse
// branch against the reference on targeted windows rather than relying on
// random draws to hit them.
func TestDPEquivalenceCollapseBranches(t *testing.T) {
	mk := func(specs ...[2]int64) []*job.Job {
		out := make([]*job.Job, len(specs))
		for i, sp := range specs {
			out[i] = &job.Job{ID: i + 1, Size: int(sp[0]), Dur: sp[1], ReqStart: -1}
		}
		return out
	}
	cases := []struct {
		name    string
		cands   []*job.Job
		m, frec int
		fret    int64
	}{
		// Every candidate finishes before the freeze: frenum all zero.
		{"all-zero-frenum", mk([2]int64{96, 10}, [2]int64{128, 20}, [2]int64{160, 30}, [2]int64{64, 5}), 256, 32, 100},
		// Slack freeze: some frenum nonzero but total demand fits frec.
		{"slack-freeze", mk([2]int64{96, 10}, [2]int64{64, 500}, [2]int64{160, 30}, [2]int64{128, 20}), 256, 64, 100},
		// Slack current capacity: everything fits m, freeze binds.
		{"slack-m", mk([2]int64{96, 500}, [2]int64{64, 500}, [2]int64{32, 10}, [2]int64{64, 600}), 512, 96, 100},
		// Every candidate still runs at the freeze end: frenum = size.
		{"all-full-frenum", mk([2]int64{96, 500}, [2]int64{128, 600}, [2]int64{160, 700}, [2]int64{64, 800}), 256, 160, 100},
		// Mixed: both constraints bind, the genuine 2-D program.
		{"general-2d", mk([2]int64{96, 500}, [2]int64{128, 10}, [2]int64{160, 700}, [2]int64{64, 20}, [2]int64{32, 900}), 288, 96, 100},
		// Zero freeze capacity with long jobs in the window.
		{"frec-zero", mk([2]int64{96, 500}, [2]int64{128, 10}, [2]int64{64, 20}), 224, 0, 100},
	}
	for _, tc := range cases {
		var s Scratch
		got := ReservationDP(tc.cands, tc.m, tc.frec, tc.fret, 0, &s)
		want := referenceReservationDP(tc.cands, tc.m, tc.frec, tc.fret, 0)
		sameSelection(t, tc.name, got, want)
	}
}

// FuzzDPEquivalence fuzzes the optimized packing engine against the
// reference implementations, including an immediate re-solve that drives
// the memo-hit path.
func FuzzDPEquivalence(f *testing.F) {
	f.Add([]byte{3, 32, 5, 64, 200, 96, 50}, uint16(128), int16(64), uint16(100), uint8(10))
	f.Add([]byte{2, 7, 1, 13, 255}, uint16(20), int16(0), uint16(3), uint8(0))
	f.Add([]byte{5, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5}, uint16(7), int16(-3), uint16(0), uint8(50))
	f.Fuzz(func(t *testing.T, data []byte, mRaw uint16, frecRaw int16, fretRaw uint16, nowRaw uint8) {
		if len(data) < 1 {
			return
		}
		n := int(data[0]) % 10
		if len(data) < 1+2*n {
			return
		}
		maxSize := 0
		cands := make([]*job.Job, 0, n)
		for i := 0; i < n; i++ {
			size := int(data[1+2*i])%64 + 1
			dur := int64(data[2+2*i]) + 1
			if size > maxSize {
				maxSize = size
			}
			cands = append(cands, &job.Job{ID: i + 1, Size: size, Dur: dur, ReqStart: -1})
		}
		// Candidates must fit individually, per the Context.Window invariant.
		m := maxSize + int(mRaw)%512
		frec := int(frecRaw)
		now := int64(nowRaw)
		fret := now + int64(fretRaw)%300

		var s Scratch
		gotB := BasicDP(cands, m, &s)
		wantB := referenceBasicDP(cands, m)
		sameSelection(t, "BasicDP", gotB, wantB)
		sameSelection(t, "BasicDP memo", BasicDP(cands, m, &s), wantB)

		gotR := ReservationDP(cands, m, frec, fret, now, &s)
		wantR := referenceReservationDP(cands, m, frec, fret, now)
		sameSelection(t, "ReservationDP", gotR, wantR)
		sameSelection(t, "ReservationDP memo", ReservationDP(cands, m, frec, fret, now, &s), wantR)
	})
}

// --- cycle memo behaviour ---

// MemoStats reports cycle-memo hits and misses over the Scratch's
// lifetime.
func (s *Scratch) MemoStats() (hits, misses uint64) { return s.hits, s.misses }

func TestMemoHitOnRepeatedWindow(t *testing.T) {
	var s Scratch
	jobs := mkJobs(7*32, 4*32, 6*32)
	a := ids(BasicDP(jobs, 320, &s))
	b := ids(BasicDP(jobs, 320, &s))
	if len(a) != len(b) {
		t.Fatalf("memo changed the selection: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("memo changed the selection: %v vs %v", a, b)
		}
	}
	hits, misses := s.MemoStats()
	if hits != 1 || misses != 1 {
		t.Errorf("MemoStats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

func TestMemoMissOnChangedInputs(t *testing.T) {
	var s Scratch
	jobs := mkJobs(7*32, 4*32, 6*32)
	BasicDP(jobs, 320, &s)
	BasicDP(jobs, 288, &s) // capacity changed
	jobs[1].Size = 5 * 32
	BasicDP(jobs, 288, &s) // a size changed
	if hits, misses := s.MemoStats(); hits != 0 || misses != 3 {
		t.Errorf("MemoStats = (%d hits, %d misses), want (0, 3)", hits, misses)
	}
}

func TestMemoMissWhenDurationCrossesFreeze(t *testing.T) {
	var s Scratch
	jobs := mkJobs(7*32, 4*32, 6*32)
	for _, j := range jobs {
		j.Dur = 50 // finishes before the freeze end
	}
	a := ids(ReservationDP(jobs, 288, 96, 100, 0, &s))
	jobs[0].Dur = 200 // now demands freeze capacity
	b := ids(ReservationDP(jobs, 288, 96, 100, 0, &s))
	if _, misses := s.MemoStats(); misses != 2 {
		t.Fatalf("duration crossing the freeze must miss the memo (selections %v, %v)", a, b)
	}
	want := referenceReservationDP(jobs, 288, 96, 100, 0)
	got := ReservationDP(jobs, 288, 96, 100, 0, &s)
	sameSelection(t, "after crossing", got, want)
}

// TestMemoSelectionTracksCurrentPointers: the memo keys on sizes and
// freeze demands, not identity, so a hit against a *different* window of
// equal shape must return the current window's jobs.
func TestMemoSelectionTracksCurrentPointers(t *testing.T) {
	var s Scratch
	a := mkJobs(7*32, 4*32, 6*32)
	b := mkJobs(7*32, 4*32, 6*32) // distinct pointers, equal shape
	selA := BasicDP(a, 320, &s)
	_ = selA
	selB := BasicDP(b, 320, &s)
	if hits, _ := s.MemoStats(); hits != 1 {
		t.Fatal("equal-shape window should hit the memo")
	}
	for _, j := range selB {
		if !Contains(b, j) {
			t.Fatalf("memo-hit selection returned a job from the previous window: %v", j)
		}
	}
}

// TestScratchSelectionAliasing pins the documented aliasing contract: the
// returned slice is Scratch-owned and is overwritten by the next call.
func TestScratchSelectionAliasing(t *testing.T) {
	var s Scratch
	first := BasicDP(mkJobs(7*32, 4*32, 6*32), 320, &s)
	if len(first) == 0 {
		t.Fatal("expected a non-empty selection")
	}
	second := BasicDP(mkJobs(3*32, 2*32), 320, &s)
	if len(second) == 0 {
		t.Fatal("expected a non-empty selection")
	}
	if &first[0] != &second[0] {
		t.Error("selections should share the Scratch-owned backing array")
	}
}

// --- quantum edge cases ---

func TestQuantumZeroSizeCandidate(t *testing.T) {
	// gcd(g, 0) = g: a zero-size candidate must not collapse the quantum
	// to 1 (workload validation rejects such jobs, but quantum is total).
	if g := quantum(mkJobs(0, 64), 320); g != 64 {
		t.Errorf("quantum with zero-size candidate = %d, want 64", g)
	}
}

func TestQuantumZeroFrecExcluded(t *testing.T) {
	// Non-positive capacity bounds are ignored, so frec = 0 keeps the
	// 32-processor quantum instead of degenerating.
	if g := quantum(mkJobs(64, 96), 320, 0); g != 32 {
		t.Errorf("quantum with frec=0 = %d, want 32", g)
	}
	if g := quantum(mkJobs(64, 96), 320, -5); g != 32 {
		t.Errorf("quantum with negative cap = %d, want 32", g)
	}
}

func TestQuantumMixedNonMultipleSizes(t *testing.T) {
	// One irregular size drops the quantum to the residual gcd.
	if g := quantum(mkJobs(64, 96, 33), 320); g != 1 {
		t.Errorf("quantum with size 33 = %d, want 1", g)
	}
	if g := quantum(mkJobs(48, 96), 320); g != 16 {
		t.Errorf("quantum with 48/96/320 = %d, want 16", g)
	}
}
