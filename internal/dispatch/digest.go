package dispatch

import (
	"math"

	"elastisched/internal/engine"
)

// Digest is the compact queue state one cluster publishes at an epoch
// barrier — the only cross-cluster information the exchange step and the
// feedback router are allowed to read. Everything in it is derived from the
// cluster's deterministic session state at the barrier instant, so the
// merged digest vector is itself deterministic and independent of worker
// count.
type Digest struct {
	// Cluster is the publishing cluster's index.
	Cluster int
	// QueueDepth is the number of waiting batch jobs.
	QueueDepth int
	// BacklogProcSeconds is the queued work: Σ size × estimated runtime
	// over the waiting batch jobs.
	BacklogProcSeconds int64
	// RunningProcSeconds is the residual running work: Σ size × (kill-by −
	// barrier) over the active jobs. Backlog + Running is the cluster's
	// outstanding load in processor-seconds.
	RunningProcSeconds int64
	// FreeProcs is the machine's free in-service capacity at the barrier.
	FreeProcs int
	// HeadDeficit is how many processors the queue head lacks to start
	// (head size − free, floored at zero; zero with an empty queue). A
	// positive deficit marks a blocked cluster: its head cannot start at
	// home no matter what the local scheduler does next.
	HeadDeficit int
}

// digestSession computes one cluster's barrier digest from its session by
// walking its queue and active list, and returns what the walk read of the
// running jobs.
func digestSession(c int, s *engine.Session, barrier int64) (Digest, runSums) {
	d := Digest{Cluster: c, FreeProcs: s.FreeProcs()}
	queued := s.WaitingBatch()
	d.QueueDepth = len(queued)
	for _, j := range queued {
		d.BacklogProcSeconds += int64(j.Size) * j.Dur
	}
	if len(queued) > 0 {
		if deficit := queued[0].Size - d.FreeProcs; deficit > 0 {
			d.HeadDeficit = deficit
		}
	}
	r := runSums{minEnd: math.MaxInt64}
	for _, j := range s.ActiveJobs() {
		if rem := j.EndTime - barrier; rem > 0 {
			d.RunningProcSeconds += int64(j.Size) * rem
		}
		r.size += int64(j.Size)
		r.sizeEnd += int64(j.Size) * j.EndTime
		r.minEnd = min(r.minEnd, j.EndTime)
	}
	return d, r
}

// runSums is what a digest walk read of a cluster's running jobs: Σ size,
// Σ size·EndTime and the earliest EndTime (math.MaxInt64 when none runs).
type runSums struct {
	size, sizeEnd, minEnd int64
}

// running re-derives RunningProcSeconds at a later barrier for a cluster
// that has not changed since the walk. While every running job ends after
// the barrier, Σ size·(EndTime − barrier) = Σ size·EndTime − barrier·Σ size.
// A job ending at or before the barrier contributes nothing to the digest
// but would subtract here, so ok is false and the caller walks instead.
// That never happens to an untouched cluster in a run: a running job
// completes no later than its EndTime, and a session holding an event at or
// before the barrier is stepped, which touches it.
func (r runSums) running(barrier int64) (run int64, ok bool) {
	if r.minEnd <= barrier {
		return 0, false
	}
	return r.sizeEnd - barrier*r.size, true
}

// load is the cluster's outstanding work in processor-seconds — the
// quantity the exchange step balances.
func (d Digest) load() int64 { return d.BacklogProcSeconds + d.RunningProcSeconds }

// PinnedCluster resolves the affinity pin of a job ID: with affinity class
// size K > 0, every K-th submission (IDs divisible by K) is pinned to home
// cluster (ID/K) mod clusters — a deterministic data-locality class that
// both routing and stealing must respect. It returns -1 for unpinned jobs
// (and for affinity 0, which disables pinning). K=1 pins every job (a pure
// static partition by ID); larger K pins a 1/K sample of the stream.
func PinnedCluster(id, affinity, clusters int) int {
	if affinity <= 0 || id < 0 || id%affinity != 0 {
		return -1
	}
	return (id / affinity) % clusters
}
