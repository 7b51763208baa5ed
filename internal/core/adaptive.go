package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"elastisched/internal/sched"
)

// Adaptive implements the dynamic algorithm-selection policy the paper
// sketches at the end of Section V-A: for workloads dominated by small jobs
// Delayed-LOS and EASY perform alike (and both beat LOS), while for
// large-job-heavy workloads Delayed-LOS wins — so select between Delayed-LOS
// and EASY from the observed proportion of small jobs.
//
// The policy keeps an exponentially weighted estimate of the small-job
// fraction over arriving work (a job is "small" if its size is at most
// SmallFrac of the machine) and delegates each cycle to EASY when the
// estimate exceeds SwitchAt, and to Delayed-LOS otherwise.
type Adaptive struct {
	// Cs is the Delayed-LOS threshold used when delegating to Delayed-LOS.
	Cs int
	// SmallFrac classifies a job as small when size <= SmallFrac * M.
	SmallFrac float64
	// SwitchAt is the small-job-fraction above which EASY is used.
	SwitchAt float64
	// Alpha is the EWMA weight for each newly observed job.
	Alpha float64

	delayed *DelayedLOS
	easy    *sched.EASY

	est    float64
	seen   map[int]bool
	inited bool
}

// NewAdaptive returns the selection policy with the defaults suggested by
// the paper's figures: small = at most 30% of the machine, switch to EASY
// when more than 70% of recent jobs are small.
func NewAdaptive(cs int) *Adaptive {
	return &Adaptive{Cs: cs, SmallFrac: 0.3, SwitchAt: 0.7, Alpha: 0.05}
}

// Name implements sched.Scheduler.
func (a *Adaptive) Name() string { return "Adaptive" }

// Heterogeneous implements sched.Scheduler; the selector is batch-only.
func (a *Adaptive) Heterogeneous() bool { return false }

// Mode reports which underlying policy the current estimate selects.
func (a *Adaptive) Mode() string {
	if a.est > a.SwitchAt {
		return "EASY"
	}
	return "Delayed-LOS"
}

// Schedule observes newly queued jobs and delegates the cycle.
func (a *Adaptive) Schedule(ctx *sched.Context) {
	if !a.inited {
		a.delayed = NewDelayedLOS(a.Cs)
		a.easy = &sched.EASY{}
		a.seen = make(map[int]bool)
		a.est = 1 // optimistic: assume small-job regime until observed
		a.inited = true
	}
	small := float64(ctx.M()) * a.SmallFrac
	for _, j := range ctx.Batch.Jobs() {
		if a.seen[j.ID] {
			continue
		}
		a.seen[j.ID] = true
		obs := 0.0
		if float64(j.Size) <= small {
			obs = 1
		}
		a.est = (1-a.Alpha)*a.est + a.Alpha*obs
	}
	if a.est > a.SwitchAt {
		a.easy.Schedule(ctx)
		return
	}
	a.delayed.Schedule(ctx)
}

// adaptiveState is the serialized logical state of the selector: the EWMA
// estimate and the set of observed job IDs. The embedded Delayed-LOS and
// EASY delegates are stateless beyond their Scratch buffers, so they carry
// nothing.
type adaptiveState struct {
	Version int     `json:"version"`
	Est     float64 `json:"est"`
	Seen    []int   `json:"seen,omitempty"`
	Inited  bool    `json:"inited"`
}

// adaptiveStateVersion stamps the Adaptive snapshot encoding.
const adaptiveStateVersion = 1

// SnapshotState implements sched.Snapshotter: Adaptive is the one built-in
// policy with logical cross-cycle state (the small-job-fraction estimate
// and which jobs it has already observed).
func (a *Adaptive) SnapshotState() ([]byte, error) {
	st := adaptiveState{Version: adaptiveStateVersion, Est: a.est, Inited: a.inited}
	for id := range a.seen {
		st.Seen = append(st.Seen, id)
	}
	sort.Ints(st.Seen) // deterministic bytes regardless of map order
	return json.Marshal(st)
}

// RestoreState implements sched.Snapshotter.
func (a *Adaptive) RestoreState(b []byte) error {
	var st adaptiveState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("adaptive: decoding state: %v", err)
	}
	if st.Version != adaptiveStateVersion {
		return fmt.Errorf("adaptive: state version %d, want %d", st.Version, adaptiveStateVersion)
	}
	if st.Inited && !a.inited {
		// Run the lazy constructor so the delegates exist before the first
		// post-restore cycle.
		a.delayed = NewDelayedLOS(a.Cs)
		a.easy = &sched.EASY{}
		a.seen = make(map[int]bool, len(st.Seen))
		a.inited = true
	}
	a.est = st.Est
	for _, id := range st.Seen {
		a.seen[id] = true
	}
	return nil
}
