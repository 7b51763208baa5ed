// Package workload generates synthetic Cloud Workload Format workloads
// following Section IV-D of the paper: the Lublin–Feitelson analytical model
// for runtimes and arrivals, the paper's two-stage uniform job-size model,
// a Bernoulli batch/dedicated split (P_D), and Elastic Control Command
// injection (P_E extensions, P_R reductions).
//
// Runtimes are exp(hyper-Gamma) with the mixing probability tied linearly to
// job size (p = pa*size + pb, clamped), the mechanism of the reference
// Lublin implementation; Table I of the paper gives the parameters verbatim.
// Arrivals use Gamma(alpha_arr, beta_arr) inter-arrival gaps with a daily
// rush-hour modulation controlled by ARAR (Table II); beta_arr is the load
// knob. Because the paper reports its x-axis in offered Load rather than
// beta_arr, the generator can also rescale arrival times to hit an exact
// target load — the same arrival-time-scaling technique the paper uses to
// vary the load of the SDSC log in Figure 1.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"elastisched/internal/cwf"
	"elastisched/internal/dist"
	"elastisched/internal/job"
)

// ArrivalMode selects how arrival instants are produced.
type ArrivalMode uint8

const (
	// InterArrival draws successive gaps from Gamma(AlphaArr, BetaArr)
	// scaled by ArrUnit seconds (default).
	InterArrival ArrivalMode = iota
	// HourlyCount draws a per-hour job count from Gamma(AlphaNum, BetaNum)
	// and spreads the arrivals uniformly within each hour — the "number of
	// jobs that arrive in each interval" reading of the paper's Table II.
	HourlyCount
	// DailyCycle is the Lublin-style cyclic day: the per-hour count from
	// HourlyCount is further modulated by an empirical hour-of-day weight
	// profile (quiet nights, a mid-day plateau peaking in the afternoon),
	// producing the characteristic daily rhythm of supercomputer logs.
	DailyCycle
)

// dayProfile is the relative arrival weight per hour of day, shaped after
// the published supercomputer-log daily cycles (minimum around 04-05h,
// plateau 09-17h, slow evening decline). Mean weight is 1.
var dayProfile = [24]float64{
	0.50, 0.42, 0.38, 0.35, 0.34, 0.38,
	0.50, 0.72, 1.10, 1.45, 1.60, 1.66,
	1.58, 1.62, 1.64, 1.60, 1.52, 1.40,
	1.24, 1.08, 0.92, 0.78, 0.66, 0.56,
}

// SizeModel selects the job-size distribution.
type SizeModel uint8

const (
	// TwoStageUniform is the paper's BlueGene/P model: small jobs
	// 32/64/96 with probability PS, large jobs 128..320 otherwise.
	TwoStageUniform SizeModel = iota
	// PowerOfTwo is an SDSC-SP2-like model: serial jobs with probability
	// 0.25, power-of-two jobs (2^k, k uniform in [1, log2(M)]) with
	// probability 0.5, and odd sizes uniform in [2, M/2] otherwise —
	// matching the archive observation that roughly two thirds of parallel
	// jobs use power-of-two partitions while the rest are irregular. Used
	// for the Figure 1 trace where packing properties must resemble the
	// real archive log rather than the 32-way quantized cloud workload.
	PowerOfTwo
)

// Params configures the generator. Zero value is not usable; start from
// DefaultParams.
type Params struct {
	Seed int64
	N    int // number of job submissions (N_J)

	M    int // machine size in processors
	Unit int // allocation quantum (node group size)

	Sizes SizeModel
	// PS is the probability a job is small (paper's P_S).
	PS float64
	// PD is the probability a job is dedicated (paper's P_D).
	PD float64
	// PE and PR are the per-job probabilities of injecting an ET or RT
	// elastic control command (paper fixes 0.2 and 0.1).
	PE, PR float64

	// Runtime model (paper Table I): runtime = exp(hyper-Gamma) seconds.
	Alpha1, Beta1 float64 // first Gamma (short jobs)
	Alpha2, Beta2 float64 // second Gamma (long jobs)
	PA, PB        float64 // p = PA*size + PB, clamped to [PClampLo, PClampHi]
	PClampLo      float64
	PClampHi      float64
	MaxRuntime    int64 // kill cap, seconds
	MinRuntime    int64

	// Estimate model. The paper's synthetic workloads use exact estimates
	// (estimate = actual runtime); the related work it cites (Mu'alem &
	// Feitelson) observes that backfilling improves when users
	// over-estimate by about 2x. EstFactor > 1 sets estimate =
	// EstFactor * actual for every job; EstUniformMax > 1 instead draws a
	// per-job factor uniformly from [1, EstUniformMax] (the "f-model" of
	// estimate inaccuracy). Both zero/one means exact estimates.
	EstFactor     float64
	EstUniformMax float64

	// Arrival model (paper Table II).
	Mode               ArrivalMode
	AlphaArr, BetaArr  float64
	AlphaNum, BetaNum  float64
	ARAR               float64 // arrive rush-to-all ratio
	ArrUnit            float64 // seconds per inter-arrival Gamma unit
	RushStart, RushEnd int     // rush hours of day [start, end)

	// TargetLoad, when > 0, rescales arrival times so the generated
	// workload's offered load matches it (two fixed-point iterations).
	TargetLoad float64

	// Dedicated jobs: requested start = arrival + 1 + Exp(DedLeadMean).
	DedLeadMean float64
	// ECC amount = 1 + Exp(ECCAmountFrac * dur); issue time uniform over
	// [arrival, arrival + dur].
	ECCAmountFrac float64
	// SizeECC emits EP/RP (processor extension/reduction) commands instead
	// of ET/RT — the paper's future-work resource-dimension elasticity.
	// Amounts are in processors (mean ECCAmountFrac * size).
	SizeECC bool

	// PM is the probability a batch job is malleable: it gets processor
	// bounds MinProcs = Unit and MaxProcs = its submitted size, so the
	// scheduler may shrink it at runtime and later restore it (no growth
	// beyond submission). Flags are drawn in a post-pass with a separate
	// random stream seeded from Seed, so PM = 0 (the default) leaves the
	// generated workload byte-identical to the pre-malleability generator.
	PM float64
}

// DefaultParams returns the paper's experimental configuration: BlueGene/P
// with 320 processors in groups of 32, Table I runtime parameters, Table II
// arrival parameters, P_E = 0.2, P_R = 0.1.
func DefaultParams() Params {
	return Params{
		Seed: 1, N: 500,
		M: 320, Unit: 32,
		Sizes: TwoStageUniform,
		PS:    0.5, PD: 0, PE: 0, PR: 0,
		Alpha1: 4.2, Beta1: 0.94,
		Alpha2: 312, Beta2: 0.03,
		PA: -0.0054, PB: 0.78,
		PClampLo: 0.05, PClampHi: 0.95,
		MaxRuntime: 36 * 3600, MinRuntime: 1,
		Mode:     InterArrival,
		AlphaArr: 13.2303, BetaArr: 0.4101,
		AlphaNum: 15.1737, BetaNum: 0.9631,
		ARAR:      1.0225,
		ArrUnit:   60,
		RushStart: 8, RushEnd: 18,
		DedLeadMean:   3600,
		ECCAmountFrac: 0.25,
	}
}

// SDSCLike returns parameters mimicking the SDSC SP2 log used for Figure 1:
// 128 processors, no allocation quantization, power-of-two job sizes. Load
// is then varied by arrival-time scaling (TargetLoad).
func SDSCLike() Params {
	p := DefaultParams()
	p.M = 128
	p.Unit = 1
	p.Sizes = PowerOfTwo
	return p
}

// CTCLike mimics the Cornell Theory Center SP2 log (the second trace the
// LOS paper evaluates): 512 processors, irregular sizes, markedly longer
// runtimes (CTC jobs skew long: the long-Gamma component dominates).
func CTCLike() Params {
	p := SDSCLike()
	p.M = 512
	p.PB = 0.6 // lower short-job probability at every size
	return p
}

// KTHLike mimics the KTH SP2 log (the third LOS-paper trace): a small
// 100-processor machine with mostly narrow jobs and shorter runtimes.
func KTHLike() Params {
	p := SDSCLike()
	p.M = 100
	p.PB = 0.9 // higher short-job probability
	return p
}

// Validate rejects inconsistent parameter sets.
func (p Params) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("workload: N must be positive, got %d", p.N)
	}
	if p.M <= 0 || p.Unit <= 0 || p.M%p.Unit != 0 {
		return fmt.Errorf("workload: bad machine geometry M=%d unit=%d", p.M, p.Unit)
	}
	for name, v := range map[string]float64{"PS": p.PS, "PD": p.PD, "PE": p.PE, "PR": p.PR, "PM": p.PM} {
		if v < 0 || v > 1 {
			return fmt.Errorf("workload: probability %s=%g outside [0,1]", name, v)
		}
	}
	if p.PE+p.PR > 1 {
		return fmt.Errorf("workload: PE+PR=%g exceeds 1", p.PE+p.PR)
	}
	if p.Alpha1 <= 0 || p.Beta1 <= 0 || p.Alpha2 <= 0 || p.Beta2 <= 0 {
		return fmt.Errorf("workload: non-positive runtime Gamma parameters")
	}
	if p.AlphaArr <= 0 || p.BetaArr <= 0 {
		return fmt.Errorf("workload: non-positive arrival Gamma parameters")
	}
	if p.MaxRuntime < p.MinRuntime || p.MinRuntime < 1 {
		return fmt.Errorf("workload: bad runtime bounds [%d,%d]", p.MinRuntime, p.MaxRuntime)
	}
	if p.TargetLoad < 0 {
		return fmt.Errorf("workload: negative target load %g", p.TargetLoad)
	}
	if p.EstFactor < 0 || p.EstUniformMax < 0 {
		return fmt.Errorf("workload: negative estimate factor (%g, %g)", p.EstFactor, p.EstUniformMax)
	}
	return nil
}

// Generate produces a CWF workload from the parameters.
func Generate(p Params) (*cwf.Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(p.Seed))

	arrivals := p.arrivalTimes(r)
	type protoJob struct {
		size    int
		dur     int64 // user estimate
		actual  int64 // true runtime; 0 when equal to the estimate
		dedLead int64 // -1 for batch
	}
	protos := make([]protoJob, p.N)
	for i := range protos {
		size := p.sampleSize(r)
		actual := p.sampleRuntime(r, size)
		est := actual
		switch {
		case p.EstUniformMax > 1:
			f := 1 + r.Float64()*(p.EstUniformMax-1)
			est = int64(math.Round(float64(actual) * f))
		case p.EstFactor > 1:
			est = int64(math.Round(float64(actual) * p.EstFactor))
		}
		protos[i] = protoJob{size: size, dur: est, dedLead: -1}
		if est != actual {
			protos[i].actual = actual
		}
		if r.Float64() < p.PD {
			lead := 1 + int64(dist.Exponential{Mean: p.DedLeadMean}.Sample(r))
			protos[i].dedLead = lead
		}
	}

	eff := func(i int) int64 {
		if protos[i].actual > 0 && protos[i].actual < protos[i].dur {
			return protos[i].actual
		}
		return protos[i].dur
	}
	if p.TargetLoad > 0 {
		var area float64
		for i, pr := range protos {
			area += float64(pr.size) * float64(eff(i))
		}
		arrivals = rescaleToLoad(arrivals, area, p.M, p.TargetLoad,
			eff, func(i int) int64 { return protos[i].dedLead })
	}

	w := &cwf.Workload{
		Header: []string{
			"Cloud Workload Format (CWF) synthetic trace",
			fmt.Sprintf("MaxNodes: %d", p.M),
			fmt.Sprintf("Generator: lublin+two-stage-uniform seed=%d N=%d PS=%g PD=%g PE=%g PR=%g", p.Seed, p.N, p.PS, p.PD, p.PE, p.PR),
		},
		// One backing array for all jobs instead of N little heap objects;
		// commands pre-sized to their expected count. (Consumers receive
		// *job.Job as before — the engine copies jobs before mutating them,
		// so sharing a backing array is as safe as sharing the pointers.)
		Jobs:     make([]*job.Job, 0, p.N),
		Commands: make([]cwf.Command, 0, int(float64(p.N)*(p.PE+p.PR))+8),
	}
	backing := make([]job.Job, p.N)
	for i, pr := range protos {
		j := &backing[i]
		*j = job.Job{
			ID:       i + 1,
			Size:     pr.size,
			Dur:      pr.dur,
			Actual:   pr.actual,
			Arrival:  arrivals[i],
			ReqStart: -1,
			Class:    job.Batch,
		}
		if pr.dedLead >= 0 {
			j.Class = job.Dedicated
			j.ReqStart = j.Arrival + pr.dedLead
		}
		w.Jobs = append(w.Jobs, j)

		// ECC injection: ET with probability PE, RT with PR (disjoint).
		u := r.Float64()
		var typ cwf.ReqType
		switch {
		case u < p.PE:
			typ = cwf.ExtendTime
		case u < p.PE+p.PR:
			typ = cwf.ReduceTime
		default:
			continue
		}
		var amt int64
		if p.SizeECC {
			if typ == cwf.ExtendTime {
				typ = cwf.ExtendProc
			} else {
				typ = cwf.ReduceProc
			}
			amt = 1 + int64(dist.Exponential{Mean: p.ECCAmountFrac * float64(j.Size)}.Sample(r))
			if typ == cwf.ReduceProc && amt >= int64(j.Size) {
				amt = int64(j.Size) - 1
			}
		} else {
			amt = 1 + int64(dist.Exponential{Mean: p.ECCAmountFrac * float64(j.Dur)}.Sample(r))
			if typ == cwf.ReduceTime && amt >= j.Dur {
				amt = j.Dur - 1
			}
		}
		if amt <= 0 {
			continue
		}
		issue := j.Arrival + int64(r.Float64()*float64(j.Dur))
		w.Commands = append(w.Commands, cwf.Command{JobID: j.ID, Issue: issue, Type: typ, Amount: amt})
	}
	if p.PM > 0 {
		// Malleability post-pass on its own random stream: the main
		// generation stream above consumes exactly the same draws whether or
		// not PM is set, so PM = 0 workloads stay byte-identical. Jobs that
		// already carry EP/RP commands keep their profile-defined sizes —
		// bounds capped at the submitted size would contradict a pending
		// extension, so such jobs stay rigid (the draw is still consumed to
		// keep flag assignment stable across SizeECC settings).
		sized := make(map[int]bool)
		for _, c := range w.Commands {
			if c.Type == cwf.ExtendProc || c.Type == cwf.ReduceProc {
				sized[c.JobID] = true
			}
		}
		mr := rand.New(rand.NewSource(p.Seed ^ 0x6d616c6c)) // "mall"
		for _, j := range w.Jobs {
			if j.Class != job.Batch || j.Size <= p.Unit {
				continue
			}
			if mr.Float64() < p.PM && !sized[j.ID] {
				j.MinProcs = p.Unit
				j.MaxProcs = j.Size
			}
		}
	}
	w.Sort()
	if err := w.Validate(p.M); err != nil {
		return nil, fmt.Errorf("workload: generated invalid workload: %v", err)
	}
	return w, nil
}

// sampleSize draws a job size in processors.
func (p Params) sampleSize(r *rand.Rand) int {
	switch p.Sizes {
	case PowerOfTwo:
		u := r.Float64()
		switch {
		case u < 0.25:
			return 1
		case u < 0.75:
			maxLog := int(math.Log2(float64(p.M)))
			return 1 << (1 + r.Intn(maxLog))
		default:
			return 2 + r.Intn(p.M/2-1)
		}
	default:
		return dist.TwoStageUniform{
			PSmall:  p.PS,
			SmallLo: 1, SmallHi: 3,
			LargeLo: 4, LargeHi: p.M / p.Unit,
			Unit: p.Unit,
		}.Sample(r)
	}
}

// sampleRuntime draws a runtime correlated with job size via
// p = PA*size + PB (clamped): the probability of the *short* Gamma falls as
// the size grows, so large jobs run longer, as in the Lublin model.
func (p Params) sampleRuntime(r *rand.Rand, size int) int64 {
	mix := dist.Clamp(p.PA*float64(size)+p.PB, p.PClampLo, p.PClampHi)
	hg := dist.HyperGamma{
		First:  dist.Gamma{Alpha: p.Alpha1, Beta: p.Beta1},
		Second: dist.Gamma{Alpha: p.Alpha2, Beta: p.Beta2},
		P:      mix,
	}
	rt := int64(math.Round(math.Exp(hg.Sample(r))))
	if rt < p.MinRuntime {
		rt = p.MinRuntime
	}
	if rt > p.MaxRuntime {
		rt = p.MaxRuntime
	}
	return rt
}

// arrivalTimes produces N non-decreasing arrival instants starting at 0.
func (p Params) arrivalTimes(r *rand.Rand) []int64 {
	out := make([]int64, 0, p.N)
	switch p.Mode {
	case HourlyCount, DailyCycle:
		var hour int64
		var offs []float64 // per-hour scratch, reused across hours
		for len(out) < p.N {
			weight := p.rushWeight(int(hour % 24))
			if p.Mode == DailyCycle {
				weight *= dayProfile[int(hour%24)]
			}
			n := int(math.Round(dist.Gamma{Alpha: p.AlphaNum, Beta: p.BetaNum}.Sample(r) * weight))
			offs = offs[:0]
			for i := 0; i < n; i++ {
				offs = append(offs, r.Float64()*3600)
			}
			sort.Float64s(offs)
			for _, o := range offs {
				if len(out) == p.N {
					break
				}
				out = append(out, hour*3600+int64(o))
			}
			hour++
		}
	default:
		g := dist.Gamma{Alpha: p.AlphaArr, Beta: p.BetaArr}
		var t float64
		for len(out) < p.N {
			gap := g.Sample(r) * p.ArrUnit
			hourOfDay := int(t/3600) % 24
			gap /= p.rushWeight(hourOfDay)
			if gap < 1 {
				gap = 1
			}
			t += gap
			out = append(out, int64(t))
		}
	}
	return out
}

// rushWeight returns the relative arrival-rate multiplier for an hour of
// day, implementing the ARAR (arrive rush-to-all ratio) modulation.
func (p Params) rushWeight(hour int) float64 {
	if p.ARAR <= 0 {
		return 1
	}
	if hour >= p.RushStart && hour < p.RushEnd {
		return p.ARAR
	}
	return 1 / p.ARAR
}

// rescaleToLoad multiplies the arrival span by a factor so the offered load
// (area / (span * M)) matches target. Two iterations account for the tail
// of the last job's duration in the span.
func rescaleToLoad(arrivals []int64, area float64, m int, target float64,
	dur func(i int) int64, dedLead func(i int) int64) []int64 {
	if len(arrivals) == 0 {
		return arrivals
	}
	cur := make([]int64, len(arrivals))
	copy(cur, arrivals)
	for iter := 0; iter < 3; iter++ {
		first, last := cur[0], cur[0]
		for i, a := range cur {
			if a < first {
				first = a
			}
			end := a + dur(i)
			if l := dedLead(i); l >= 0 {
				end = a + l + dur(i)
			}
			if end > last {
				last = end
			}
		}
		span := float64(last - first)
		if span <= 0 {
			break
		}
		realized := area / (span * float64(m))
		factor := realized / target
		if math.Abs(factor-1) < 1e-4 {
			break
		}
		for i := range cur {
			cur[i] = first + int64(float64(cur[i]-first)*factor)
		}
	}
	return cur
}
