// Package stats provides the small statistical toolkit the experiment
// harness uses to report uncertainty: sample moments, Student-t confidence
// intervals, and paired/Welch t-tests. The paper plots single simulation
// runs per point; this reproduction averages seeds and can attach 95%
// intervals and significance to every comparison.
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for fewer than two
// values).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean.
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// CI95 returns the two-sided 95% Student-t confidence interval for the
// mean. With fewer than two samples the interval collapses to the point.
func CI95(xs []float64) (lo, hi float64) {
	m := Mean(xs)
	if len(xs) < 2 {
		return m, m
	}
	half := TInv(0.975, float64(len(xs)-1)) * StdErr(xs)
	return m - half, m + half
}

// Welch performs Welch's unequal-variance t-test between two samples,
// returning the t statistic and the Welch–Satterthwaite degrees of freedom.
func Welch(a, b []float64) (t, dof float64, err error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, errors.New("stats: Welch needs at least two samples per group")
	}
	va := Variance(a) / float64(len(a))
	vb := Variance(b) / float64(len(b))
	if va+vb == 0 {
		return 0, 1, nil
	}
	t = (Mean(a) - Mean(b)) / math.Sqrt(va+vb)
	dof = (va + vb) * (va + vb) /
		(va*va/float64(len(a)-1) + vb*vb/float64(len(b)-1))
	return t, dof, nil
}

// PairedT performs a paired t-test on the differences a[i]-b[i] (e.g. the
// same workload simulated under two schedulers) and returns the two-sided
// p-value. Identical samples give p = 1.
func PairedT(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: paired samples must have equal length")
	}
	if len(a) < 2 {
		return 0, errors.New("stats: paired test needs at least two pairs")
	}
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	se := StdErr(d)
	if se == 0 {
		if Mean(d) == 0 {
			return 1, nil
		}
		return 0, nil
	}
	t := Mean(d) / se
	return twoSidedP(t, float64(len(d)-1)), nil
}

func twoSidedP(t, dof float64) float64 {
	p := 2 * (1 - TCDF(math.Abs(t), dof))
	if p > 1 {
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// TCDF is the cumulative distribution function of Student's t with dof
// degrees of freedom, evaluated via the regularized incomplete beta
// function.
func TCDF(t, dof float64) float64 {
	if dof <= 0 {
		return math.NaN()
	}
	x := dof / (dof + t*t)
	ib := RegIncBeta(dof/2, 0.5, x)
	if t > 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// TInv returns the p-quantile of Student's t with dof degrees of freedom,
// by bisection on TCDF (sufficient for harness use).
func TInv(p, dof float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	lo, hi := -1e6, 1e6
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, dof) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// RegIncBeta is the regularized incomplete beta function I_x(a, b),
// computed with the Lentz continued fraction (Numerical Recipes 6.4).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
