package stats

import (
	"math"
	"math/rand"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

func TestMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "mean")
	approx(t, Variance(xs), 32.0/7, 1e-12, "variance")
	approx(t, StdDev(xs), math.Sqrt(32.0/7), 1e-12, "stddev")
	approx(t, StdErr(xs), math.Sqrt(32.0/7/8), 1e-12, "stderr")
}

func TestMomentsDegenerate(t *testing.T) {
	if Mean(nil) != 0 || Mean([]float64{3}) != 3 || Variance(nil) != 0 || Variance([]float64{3}) != 0 || StdErr(nil) != 0 {
		t.Error("degenerate moments not zero")
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		approx(t, RegIncBeta(1, 1, x), x, 1e-10, "I_x(1,1)")
	}
	// I_x(2,2) = x^2 (3 - 2x).
	approx(t, RegIncBeta(2, 2, 0.3), 0.3*0.3*(3-0.6), 1e-10, "I_.3(2,2)")
	// Boundaries.
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("boundary values wrong")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	approx(t, RegIncBeta(2.5, 1.5, 0.4), 1-RegIncBeta(1.5, 2.5, 0.6), 1e-10, "symmetry")
}

func TestTCDFKnownValues(t *testing.T) {
	// Standard t-table values.
	approx(t, TCDF(0, 10), 0.5, 1e-10, "TCDF(0,10)")
	// t distribution with dof=1 is Cauchy: CDF(1) = 3/4.
	approx(t, TCDF(1, 1), 0.75, 1e-8, "TCDF(1,1)")
	// dof=10, t=2.228 is the 97.5th percentile.
	approx(t, TCDF(2.228, 10), 0.975, 5e-4, "TCDF(2.228,10)")
	// Large dof approaches the normal: CDF(1.96) ~ 0.975.
	approx(t, TCDF(1.96, 1e6), 0.975, 1e-3, "TCDF(1.96,inf)")
	// Symmetry.
	approx(t, TCDF(-1.5, 7)+TCDF(1.5, 7), 1, 1e-10, "symmetry")
}

func TestTInvInvertsTCDF(t *testing.T) {
	for _, dof := range []float64{1, 5, 30} {
		for _, p := range []float64{0.6, 0.9, 0.975, 0.995} {
			q := TInv(p, dof)
			approx(t, TCDF(q, dof), p, 1e-9, "TCDF(TInv(p))")
		}
	}
	// Classic critical value: t_{0.975, 10} = 2.2281.
	approx(t, TInv(0.975, 10), 2.2281, 1e-3, "t crit 10 dof")
	if !math.IsNaN(TInv(0, 5)) || !math.IsNaN(TInv(1, 5)) {
		t.Error("TInv boundary should be NaN")
	}
}

func TestCI95CoversTrueMean(t *testing.T) {
	// Repeated normal samples: the 95% CI should cover the true mean in
	// roughly 95% of trials.
	r := rand.New(rand.NewSource(6))
	covered := 0
	trials := 400
	for i := 0; i < trials; i++ {
		xs := make([]float64, 10)
		for k := range xs {
			xs[k] = 3 + r.NormFloat64()
		}
		lo, hi := CI95(xs)
		if lo <= 3 && 3 <= hi {
			covered++
		}
	}
	rate := float64(covered) / float64(trials)
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("coverage %.3f, want ~0.95", rate)
	}
}

func TestCI95Degenerate(t *testing.T) {
	lo, hi := CI95([]float64{7})
	if lo != 7 || hi != 7 {
		t.Error("single-sample CI should collapse")
	}
}

func TestWelchSeparatedGroups(t *testing.T) {
	a := []float64{10, 11, 9, 10.5, 9.5, 10.2}
	b := []float64{20, 21, 19, 20.5, 19.5, 20.2}
	tstat, dof, err := Welch(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tstat >= 0 {
		t.Errorf("t = %g, want negative (a < b)", tstat)
	}
	if dof < 5 || dof > 10.5 {
		t.Errorf("Welch dof = %g out of plausible range", dof)
	}
}

func TestWelchKnownExample(t *testing.T) {
	// Classic Welch example (e.g. Wikipedia's A1/B1-style data): verify
	// against an independently computed value.
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.0, 23.9}
	tstat, dof, err := Welch(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Reference values computed independently (Python statistics module).
	approx(t, tstat, -2.83526, 1e-4, "Welch t")
	approx(t, dof, 27.7136, 1e-3, "Welch dof")
}

func TestWelchTooFewSamples(t *testing.T) {
	if _, _, err := Welch([]float64{1}, []float64{2, 3}); err == nil {
		t.Error("tiny sample accepted")
	}
}

func TestPairedTIdentical(t *testing.T) {
	a := []float64{1, 2, 3}
	p, err := PairedT(a, a)
	if err != nil || p != 1 {
		t.Errorf("identical paired p = %g, %v", p, err)
	}
}

func TestPairedTConstantShift(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 3, 4, 5}
	p, err := PairedT(a, b)
	if err != nil || p != 0 {
		t.Errorf("constant-shift paired p = %g, %v (zero variance in diffs)", p, err)
	}
}

func TestPairedTDetectsConsistentWin(t *testing.T) {
	// Target consistently ~10% below baseline with noise: small p.
	r := rand.New(rand.NewSource(7))
	n := 12
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		base := 100 + 10*r.NormFloat64()
		b[i] = base
		a[i] = 0.9*base + 0.5*r.NormFloat64()
	}
	p, err := PairedT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.01 {
		t.Errorf("paired p = %g for consistent 10%% win", p)
	}
}

func TestPairedTErrors(t *testing.T) {
	if _, err := PairedT([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := PairedT([]float64{1}, []float64{1}); err == nil {
		t.Error("single pair accepted")
	}
}
