// Package dist implements the random distributions used by the Lublin–
// Feitelson analytical workload model and by the paper's Cloud Workload
// Format generator: Gamma (Marsaglia–Tsang), hyper-Gamma, exponential, and
// the paper's two-stage uniform job-size distribution.
//
// All samplers draw from an explicit *rand.Rand so that every generated
// workload is reproducible from a seed, and independent experiment points
// can use independent streams.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Sampler produces one sample per call.
type Sampler interface {
	Sample(r *rand.Rand) float64
}

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample returns a uniform variate in [Lo, Hi).
func (u Uniform) Sample(r *rand.Rand) float64 {
	return u.Lo + (u.Hi-u.Lo)*r.Float64()
}

// Exponential samples from an exponential distribution with the given mean.
type Exponential struct {
	Mean float64
}

// Sample returns an exponential variate with mean Mean.
func (e Exponential) Sample(r *rand.Rand) float64 {
	return r.ExpFloat64() * e.Mean
}

// Gamma samples from a Gamma(Alpha, Beta) distribution with shape Alpha and
// scale Beta (mean Alpha*Beta, variance Alpha*Beta^2).
type Gamma struct {
	Alpha, Beta float64
}

// Sample returns a Gamma(Alpha, Beta) variate using the Marsaglia–Tsang
// squeeze method, with the standard shape<1 boost.
func (g Gamma) Sample(r *rand.Rand) float64 {
	if g.Alpha <= 0 || g.Beta <= 0 {
		panic(fmt.Sprintf("dist: invalid Gamma parameters alpha=%g beta=%g", g.Alpha, g.Beta))
	}
	alpha := g.Alpha
	boost := 1.0
	if alpha < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		boost = math.Pow(r.Float64(), 1/alpha)
		alpha++
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * g.Beta
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * g.Beta
		}
	}
}

// HyperGamma is a two-component Gamma mixture: with probability P the sample
// is drawn from First, otherwise from Second. The Lublin model uses it (with
// P tied linearly to job size) for the log of job runtimes.
type HyperGamma struct {
	First, Second Gamma
	P             float64
}

// Sample returns a variate from the mixture.
func (h HyperGamma) Sample(r *rand.Rand) float64 {
	if r.Float64() < h.P {
		return h.First.Sample(r)
	}
	return h.Second.Sample(r)
}

// TwoStageUniform is the paper's job-size model (Section IV-D): with
// probability PSmall the size is Unit * round(U[SmallLo, SmallHi]); otherwise
// Unit * round(U[LargeLo, LargeHi]). For the simulated BlueGene/P, Unit = 32,
// small in [1,3] (32/64/96 processors) and large in [4,10] (128..320).
type TwoStageUniform struct {
	PSmall           float64
	SmallLo, SmallHi int
	LargeLo, LargeHi int
	Unit             int
}

// Sample returns a job size in processors.
func (t TwoStageUniform) Sample(r *rand.Rand) int {
	lo, hi := t.LargeLo, t.LargeHi
	if r.Float64() < t.PSmall {
		lo, hi = t.SmallLo, t.SmallHi
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	n := lo + r.Intn(hi-lo+1)
	return n * t.Unit
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
