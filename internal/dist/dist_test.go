package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"elastisched/internal/stats"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func sampleN(s Sampler, n int, r *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Sample(r)
	}
	return out
}

func TestUniformBounds(t *testing.T) {
	r := rng()
	u := Uniform{Lo: 2, Hi: 5}
	for i := 0; i < 10000; i++ {
		v := u.Sample(r)
		if v < 2 || v >= 5 {
			t.Fatalf("uniform sample %g outside [2,5)", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	xs := sampleN(Uniform{Lo: 0, Hi: 10}, 50000, rng())
	mean := stats.Mean(xs)
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("uniform mean %g, want ~5", mean)
	}
}

func TestExponentialMean(t *testing.T) {
	xs := sampleN(Exponential{Mean: 42}, 100000, rng())
	mean := stats.Mean(xs)
	if math.Abs(mean-42)/42 > 0.03 {
		t.Errorf("exponential mean %g, want ~42", mean)
	}
}

func TestExponentialPositive(t *testing.T) {
	r := rng()
	e := Exponential{Mean: 1}
	for i := 0; i < 10000; i++ {
		if e.Sample(r) < 0 {
			t.Fatal("negative exponential sample")
		}
	}
}

func TestGammaMomentsLargeShape(t *testing.T) {
	// Gamma(312, 0.03): mean 9.36, std 0.53 — the paper's second runtime
	// component.
	g := Gamma{Alpha: 312, Beta: 0.03}
	xs := sampleN(g, 50000, rng())
	mean, std := stats.Mean(xs), stats.StdDev(xs)
	if math.Abs(mean-9.36)/9.36 > 0.01 {
		t.Errorf("Gamma(312,.03) mean %g, want ~9.36", mean)
	}
	wantStd := math.Sqrt(312) * 0.03
	if math.Abs(std-wantStd)/wantStd > 0.05 {
		t.Errorf("Gamma(312,.03) std %g, want ~%g", std, wantStd)
	}
}

func TestGammaMomentsModerateShape(t *testing.T) {
	// Gamma(4.2, 0.94): the paper's first runtime component.
	g := Gamma{Alpha: 4.2, Beta: 0.94}
	xs := sampleN(g, 100000, rng())
	mean, std := stats.Mean(xs), stats.StdDev(xs)
	if math.Abs(mean-4.2*0.94)/(4.2*0.94) > 0.02 {
		t.Errorf("Gamma(4.2,.94) mean %g, want ~%g", mean, 4.2*0.94)
	}
	wantStd := math.Sqrt(4.2) * 0.94
	if math.Abs(std-wantStd)/wantStd > 0.05 {
		t.Errorf("Gamma(4.2,.94) std %g, want ~%g", std, wantStd)
	}
}

func TestGammaShapeBelowOne(t *testing.T) {
	g := Gamma{Alpha: 0.5, Beta: 2}
	xs := sampleN(g, 100000, rng())
	mean := stats.Mean(xs)
	if math.Abs(mean-1)/1 > 0.05 {
		t.Errorf("Gamma(0.5,2) mean %g, want ~1", mean)
	}
	for _, x := range xs[:1000] {
		if x < 0 {
			t.Fatal("negative gamma sample")
		}
	}
}

func TestGammaInvalidParamsPanic(t *testing.T) {
	for _, g := range []Gamma{{0, 1}, {1, 0}, {-1, 2}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gamma%+v did not panic", g)
				}
			}()
			g.Sample(rng())
		}()
	}
}

func TestHyperGammaMixture(t *testing.T) {
	// P=1 and P=0 collapse to the components.
	h1 := HyperGamma{First: Gamma{2, 1}, Second: Gamma{100, 1}, P: 1}
	xs := sampleN(h1, 20000, rng())
	mean := stats.Mean(xs)
	if math.Abs(mean-2) > 0.2 {
		t.Errorf("P=1 mixture mean %g, want ~2", mean)
	}
	h0 := HyperGamma{First: Gamma{2, 1}, Second: Gamma{100, 1}, P: 0}
	xs = sampleN(h0, 20000, rng())
	mean = stats.Mean(xs)
	if math.Abs(mean-100)/100 > 0.02 {
		t.Errorf("P=0 mixture mean %g, want ~100", mean)
	}
}

func TestHyperGammaBlend(t *testing.T) {
	h := HyperGamma{First: Gamma{2, 1}, Second: Gamma{100, 1}, P: 0.5}
	xs := sampleN(h, 100000, rng())
	mean := stats.Mean(xs)
	if math.Abs(mean-51)/51 > 0.05 {
		t.Errorf("P=.5 mixture mean %g, want ~51", mean)
	}
}

func TestTwoStageUniformSupport(t *testing.T) {
	// The paper's BlueGene/P sizes: small 32/64/96, large 128..320.
	ts := TwoStageUniform{PSmall: 0.5, SmallLo: 1, SmallHi: 3, LargeLo: 4, LargeHi: 10, Unit: 32}
	r := rng()
	seen := map[int]bool{}
	for i := 0; i < 20000; i++ {
		v := ts.Sample(r)
		if v%32 != 0 {
			t.Fatalf("size %d not a multiple of 32", v)
		}
		if v < 32 || v > 320 {
			t.Fatalf("size %d out of [32,320]", v)
		}
		seen[v] = true
	}
	for _, want := range []int{32, 64, 96, 128, 160, 192, 224, 256, 288, 320} {
		if !seen[want] {
			t.Errorf("size %d never sampled", want)
		}
	}
}

func TestTwoStageUniformSmallProbability(t *testing.T) {
	for _, ps := range []float64{0.2, 0.5, 0.8} {
		ts := TwoStageUniform{PSmall: ps, SmallLo: 1, SmallHi: 3, LargeLo: 4, LargeHi: 10, Unit: 32}
		r := rng()
		small := 0
		n := 50000
		for i := 0; i < n; i++ {
			if ts.Sample(r) <= 96 {
				small++
			}
		}
		got := float64(small) / float64(n)
		if math.Abs(got-ps) > 0.01 {
			t.Errorf("PSmall=%g: observed small fraction %g", ps, got)
		}
	}
}

func TestTwoStageUniformExtremes(t *testing.T) {
	r := rng()
	allSmall := TwoStageUniform{PSmall: 1, SmallLo: 2, SmallHi: 2, LargeLo: 9, LargeHi: 9, Unit: 32}
	for i := 0; i < 100; i++ {
		if v := allSmall.Sample(r); v != 64 {
			t.Fatalf("PSmall=1 with degenerate range gave %d, want 64", v)
		}
	}
	allLarge := TwoStageUniform{PSmall: 0, SmallLo: 1, SmallHi: 3, LargeLo: 10, LargeHi: 10, Unit: 32}
	for i := 0; i < 100; i++ {
		if v := allLarge.Sample(r); v != 320 {
			t.Fatalf("PSmall=0 with degenerate range gave %d, want 320", v)
		}
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{0.5, 0, 1, 0.5},
		{-1, 0, 1, 0},
		{2, 0, 1, 1},
		{0, 0, 1, 0},
		{1, 0, 1, 1},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%g,%g,%g) = %g, want %g", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := sampleN(Gamma{4.2, 0.94}, 100, rand.New(rand.NewSource(9)))
	b := sampleN(Gamma{4.2, 0.94}, 100, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different gamma streams")
		}
	}
}

// Property: gamma samples are always positive for positive parameters.
func TestPropertyGammaPositive(t *testing.T) {
	r := rng()
	f := func(a8, b8 uint8) bool {
		alpha := 0.1 + float64(a8)/16
		beta := 0.01 + float64(b8)/64
		g := Gamma{Alpha: alpha, Beta: beta}
		for i := 0; i < 10; i++ {
			if g.Sample(r) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: two-stage uniform output is always Unit-aligned and in range.
func TestPropertyTwoStageAligned(t *testing.T) {
	r := rng()
	f := func(p8 uint8) bool {
		ts := TwoStageUniform{
			PSmall: float64(p8) / 255, SmallLo: 1, SmallHi: 3,
			LargeLo: 4, LargeHi: 10, Unit: 32,
		}
		for i := 0; i < 20; i++ {
			v := ts.Sample(r)
			if v%32 != 0 || v < 32 || v > 320 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
