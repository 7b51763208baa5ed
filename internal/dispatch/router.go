package dispatch

import (
	"fmt"
	"sort"

	"elastisched/internal/job"
)

// Routing policy names accepted by Config.Route and NewRouter.
const (
	// RouteRoundRobin is the static default: job i goes to cluster
	// i mod N, independent of job shape. Load-blind but zero-state.
	RouteRoundRobin = "roundrobin"
	// RouteLeastWork routes each submission to the cluster holding the
	// least routed work so far, measured in processor-seconds
	// (size × estimated runtime). Balances total work under size- or
	// runtime-skewed mixes where round-robin leaves hot shards.
	RouteLeastWork = "least-work"
	// RouteBestFit is size-aware bin packing over a virtual machine per
	// cluster: each routed job virtually occupies its processors for its
	// estimated runtime, and a new submission goes to the fitting cluster
	// with the tightest remaining capacity. Narrow jobs therefore pack
	// onto already-loaded shards, keeping whole-machine-scale free blocks
	// available so wide jobs land on unfragmented shards. When no cluster
	// virtually fits the job, it falls back to the least outstanding
	// work.
	RouteBestFit = "best-fit"
	// RouteFeedback is the dynamic policy: arrivals are routed by the
	// clusters' last-epoch barrier digests (observed outstanding work)
	// instead of a model of the routed prefix. It needs the epoch protocol
	// (Config.Epoch > 0) to have digests to read; Config.Validate enforces
	// that with ErrEpochRequired.
	RouteFeedback = "feedback"
)

// ErrUnknownRoute rejects a routing-policy name NewRouter does not know.
var ErrUnknownRoute = fmt.Errorf("dispatch: unknown routing policy (want one of %v)", Policies())

// Router decides which cluster each submission lands on. Implementations
// must be purely workload-deterministic: jobs are presented in workload
// (submission) order, and the decision may depend only on that prefix and
// the (clusters, m) geometry — never on timing, worker count, or
// simulation outcomes. That is what keeps every policy byte-identical
// across worker counts (the package determinism contract).
type Router interface {
	// Name returns the policy name as accepted by NewRouter.
	Name() string
	// Reset prepares the router for one routing pass: clusters is the
	// cluster count, m the per-cluster machine size in processors.
	Reset(clusters, m int)
	// Route returns the destination cluster (0..clusters-1) for j.
	Route(j *job.Job) int
}

// NewRouter resolves a policy name ("" means RouteRoundRobin) to a fresh
// Router instance. Routers hold routing state and are not safe to share
// across concurrent routing passes.
func NewRouter(name string) (Router, error) {
	switch name {
	case "", RouteRoundRobin:
		return &roundRobin{}, nil
	case RouteLeastWork:
		return &leastWork{}, nil
	case RouteBestFit:
		return &bestFit{}, nil
	case RouteFeedback:
		return &feedback{}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownRoute, name)
	}
}

// Policies lists the routing-policy names NewRouter accepts, sorted.
func Policies() []string {
	names := []string{RouteRoundRobin, RouteLeastWork, RouteBestFit, RouteFeedback}
	sort.Strings(names)
	return names
}

// DigestRouter is the dynamic extension of Router: a policy that reads
// live cluster state, fed the merged barrier digests once per epoch. The
// determinism contract extends naturally — digests are a deterministic
// function of the simulation state at the barrier, so decisions remain a
// pure function of (workload, clusters, policy, epoch length).
type DigestRouter interface {
	Router
	// ObserveDigests installs the digests published at the last barrier;
	// subsequent Route calls decide from them. Called once per epoch,
	// before that epoch's release window is routed.
	ObserveDigests(d []Digest)
	// Assigned informs the router of a placement it did not decide — an
	// affinity-pinned job — so its load accounting stays coherent.
	Assigned(j *job.Job, c int)
}

// feedback routes each released arrival to the cluster with the least
// observed outstanding work: the last barrier digest's backlog plus
// residual running processor-seconds, plus the work this router has routed
// there since that barrier. Before the first barrier every digest is zero
// and the policy degenerates to least-work over the routed prefix. Ties go
// to the lowest cluster index.
type feedback struct {
	base   []int64 // last barrier digest load per cluster
	routed []int64 // work routed since that barrier
}

func (r *feedback) Name() string { return RouteFeedback }

func (r *feedback) Reset(clusters, m int) {
	r.base = make([]int64, clusters)
	r.routed = make([]int64, clusters)
}

func (r *feedback) ObserveDigests(d []Digest) {
	for c := range r.base {
		r.base[c] = 0
		r.routed[c] = 0
	}
	for _, dg := range d {
		r.base[dg.Cluster] = dg.load()
	}
}

func (r *feedback) Route(j *job.Job) int {
	best := 0
	bestLoad := r.base[0] + r.routed[0]
	for c := 1; c < len(r.base); c++ {
		if l := r.base[c] + r.routed[c]; l < bestLoad {
			best, bestLoad = c, l
		}
	}
	r.routed[best] += int64(j.Size) * j.Dur
	return best
}

func (r *feedback) Assigned(j *job.Job, c int) {
	r.routed[c] += int64(j.Size) * j.Dur
}

// roundRobin is the static default dispatcher: submission i to cluster
// i mod clusters.
type roundRobin struct {
	clusters, next int
}

func (r *roundRobin) Name() string { return RouteRoundRobin }

func (r *roundRobin) Reset(clusters, m int) {
	r.clusters = clusters
	r.next = 0
}

func (r *roundRobin) Route(*job.Job) int {
	c := r.next
	r.next++
	if r.next == r.clusters {
		r.next = 0
	}
	return c
}

// leastWork tracks the processor-seconds routed to each cluster and sends
// every submission to the least-loaded one (ties to the lowest index).
type leastWork struct {
	work []float64
}

func (r *leastWork) Name() string { return RouteLeastWork }

func (r *leastWork) Reset(clusters, m int) {
	r.work = make([]float64, clusters)
}

func (r *leastWork) Route(j *job.Job) int {
	best := 0
	for c := 1; c < len(r.work); c++ {
		if r.work[c] < r.work[best] {
			best = c
		}
	}
	r.work[best] += float64(j.Size) * float64(j.Dur)
	return best
}

// vjob is one virtually running job on a bestFit cluster model.
type vjob struct {
	end  int64
	size int
	work float64
}

// bestFit models each cluster as a virtual machine of m processors: a
// routed job occupies Size processors from its arrival for its estimated
// runtime (a min-heap per cluster retires virtual completions as later
// arrivals are routed). A submission goes to the fitting cluster with the
// least free capacity left — classic best-fit, so narrow jobs stack onto
// partially filled shards and machine-scale free runs survive for wide
// jobs. When every cluster is virtually full the job is parked, overflow
// allowed, on the cluster with the least outstanding processor-seconds
// (the least-work criterion), which models its queue.
type bestFit struct {
	m       int
	used    []int
	work    []float64
	running [][]vjob
}

func (r *bestFit) Name() string { return RouteBestFit }

func (r *bestFit) Reset(clusters, m int) {
	r.m = m
	r.used = make([]int, clusters)
	r.work = make([]float64, clusters)
	r.running = make([][]vjob, clusters)
}

func (r *bestFit) Route(j *job.Job) int {
	for c := range r.running {
		r.retire(c, j.Arrival)
	}
	best, bestFree := -1, 0
	for c, u := range r.used {
		free := r.m - u
		if j.Size <= free && (best < 0 || free < bestFree) {
			best, bestFree = c, free
		}
	}
	if best < 0 {
		best = 0
		for c := 1; c < len(r.work); c++ {
			if r.work[c] < r.work[best] {
				best = c
			}
		}
	}
	wk := float64(j.Size) * float64(j.Dur)
	r.used[best] += j.Size
	r.work[best] += wk
	heapPush(&r.running[best], vjob{end: j.Arrival + j.Dur, size: j.Size, work: wk})
	return best
}

// retire releases every virtual job on cluster c that has completed by
// time now. Jobs are routed in arrival order, so retirement only moves
// forward; equal-end pops commute (only the sums matter), keeping the
// model deterministic.
func (r *bestFit) retire(c int, now int64) {
	h := r.running[c]
	for len(h) > 0 && h[0].end <= now {
		v := heapPop(&h)
		r.used[c] -= v.size
		r.work[c] -= v.work
	}
	r.running[c] = h
}

// heapPush/heapPop maintain a binary min-heap on vjob.end in place —
// container/heap without the interface boxing.
func heapPush(h *[]vjob, v vjob) {
	s := append(*h, v)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].end <= s[i].end {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func heapPop(h *[]vjob) vjob {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l].end < s[small].end {
			small = l
		}
		if r < n && s[r].end < s[small].end {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return top
}
