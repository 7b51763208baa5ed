package dispatch

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/job"
)

// staticPolicies lists the policies that route from the workload alone,
// without barrier digests, so they run with Epoch 0.
var staticPolicies = []string{RouteBestFit, RouteLeastWork, RouteRoundRobin}

// TestRouterRegistry pins the one policy-name registry: the empty name is
// the round-robin default, every listed policy resolves (the static ones
// and feedback, which reads digests), and unknown names fail with the
// typed error.
func TestRouterRegistry(t *testing.T) {
	want := append(append([]string{}, staticPolicies...), RouteFeedback)
	sort.Strings(want)
	if got := Policies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
	if r, err := NewRouter(RouteFeedback); err != nil {
		t.Fatal(err)
	} else if _, ok := r.(DigestRouter); !ok {
		t.Fatal("the feedback router does not read digests")
	}
	r, err := NewRouter("")
	if err != nil || r.Name() != RouteRoundRobin {
		t.Fatalf(`NewRouter("") = %v, %v; want the round-robin default`, r, err)
	}
	for _, name := range Policies() {
		r, err := NewRouter(name)
		if err != nil {
			t.Errorf("NewRouter(%q): %v", name, err)
			continue
		}
		if r.Name() != name {
			t.Errorf("NewRouter(%q).Name() = %q", name, r.Name())
		}
	}
	if _, err := NewRouter("steal-everything"); !errors.Is(err, ErrUnknownRoute) {
		t.Fatalf("unknown policy: got %v, want errors.Is(err, ErrUnknownRoute)", err)
	}
}

// TestRoutingPolicyProperties is the policy-independent routing contract:
// for every policy and cluster count, the split partitions the workload
// exactly (no job lost or duplicated), every command lands on its job's
// cluster with none dropped, every destination is a real cluster whose
// machine fits the job, and routing the same workload twice produces the
// identical split (purity).
func TestRoutingPolicyProperties(t *testing.T) {
	const m = 320
	w := testWorkload(t, 211, 13)
	for _, policy := range Policies() {
		for _, clusters := range []int{2, 3, 8} {
			r, err := NewRouter(policy)
			if err != nil {
				t.Fatal(err)
			}
			parts, _ := split(w, clusters, m, 0, r)
			if len(parts) != clusters {
				t.Fatalf("%s/%d: %d parts", policy, clusters, len(parts))
			}
			seen := make(map[int]int, len(w.Jobs))
			jobs, cmds := 0, 0
			for c, p := range parts {
				owned := map[int]bool{}
				for _, j := range p.Jobs {
					if prev, dup := seen[j.ID]; dup {
						t.Fatalf("%s/%d: job %d on clusters %d and %d", policy, clusters, j.ID, prev, c)
					}
					seen[j.ID] = c
					owned[j.ID] = true
					if j.Size > m {
						t.Fatalf("%s/%d: job %d (size %d) routed to a cluster it cannot fit (M=%d)",
							policy, clusters, j.ID, j.Size, m)
					}
				}
				for _, cmd := range p.Commands {
					if !owned[cmd.JobID] {
						t.Fatalf("%s/%d: cluster %d holds %v for a job it does not own", policy, clusters, c, cmd)
					}
				}
				jobs += len(p.Jobs)
				cmds += len(p.Commands)
			}
			if jobs != len(w.Jobs) || cmds != len(w.Commands) {
				t.Fatalf("%s/%d: routed %d jobs / %d commands, workload has %d / %d",
					policy, clusters, jobs, cmds, len(w.Jobs), len(w.Commands))
			}
			r2, _ := NewRouter(policy)
			if again, _ := split(w, clusters, m, 0, r2); !reflect.DeepEqual(parts, again) {
				t.Fatalf("%s/%d: routing is not a pure function of the workload", policy, clusters)
			}
		}
	}
}

// TestLeastWorkBalancesSkew: under a work-skewed stream (every other job
// carries 100x the work), least-work must spread the heavy jobs across
// clusters while round-robin, phase-locked to the alternation, piles every
// heavy job onto the even clusters.
func TestLeastWorkBalancesSkew(t *testing.T) {
	const m, clusters = 320, 2
	var jobs []*job.Job
	for i := 0; i < 40; i++ {
		dur := int64(100)
		if i%2 == 0 {
			dur = 10000
		}
		jobs = append(jobs, &job.Job{ID: i + 1, Size: 32, Dur: dur, Arrival: int64(i), ReqStart: -1})
	}
	w := &cwf.Workload{Jobs: jobs}

	work := func(p *cwf.Workload) (t int64) {
		for _, j := range p.Jobs {
			t += int64(j.Size) * j.Dur
		}
		return
	}
	rr, _ := NewRouter(RouteRoundRobin)
	rrParts, _ := split(w, clusters, m, 0, rr)
	lw, _ := NewRouter(RouteLeastWork)
	lwParts, _ := split(w, clusters, m, 0, lw)

	rrSkew := float64(work(rrParts[0])) / float64(work(rrParts[1]))
	if rrSkew < 10 {
		t.Fatalf("round-robin skew %.1f — the scenario no longer produces a hot shard", rrSkew)
	}
	lwSkew := float64(work(lwParts[0])) / float64(work(lwParts[1]))
	if lwSkew > 1.5 || lwSkew < 1/1.5 {
		t.Fatalf("least-work skew %.2f, want near-balanced shards", lwSkew)
	}
}

// TestBestFitKeepsWideJobsFitting: best-fit packs narrow jobs tightly onto
// already-loaded shards, so a later machine-wide job finds a virtually
// empty shard. Least-work would have spread the narrow jobs over both
// shards and left the wide job with no virtual fit anywhere.
func TestBestFitKeepsWideJobsFitting(t *testing.T) {
	const m, clusters = 320, 2
	w := &cwf.Workload{Jobs: []*job.Job{
		{ID: 1, Size: 160, Dur: 1000, Arrival: 0, ReqStart: -1},
		{ID: 2, Size: 160, Dur: 1000, Arrival: 1, ReqStart: -1},
		{ID: 3, Size: 320, Dur: 1000, Arrival: 2, ReqStart: -1},
	}}
	bf, _ := NewRouter(RouteBestFit)
	parts, _ := split(w, clusters, m, 0, bf)
	if len(parts[0].Jobs) != 2 || parts[0].Jobs[0].ID != 1 || parts[0].Jobs[1].ID != 2 {
		t.Fatalf("best-fit should stack both half-machine jobs on cluster 0, got %v", parts[0].Jobs)
	}
	if len(parts[1].Jobs) != 1 || parts[1].Jobs[0].ID != 3 {
		t.Fatalf("best-fit should hand the wide job the empty cluster 1, got %v", parts[1].Jobs)
	}

	lw, _ := NewRouter(RouteLeastWork)
	lwParts, _ := split(w, clusters, m, 0, lw)
	for _, p := range lwParts {
		for _, j := range p.Jobs {
			if j.ID == 3 && len(p.Jobs) == 1 {
				t.Fatal("least-work gave the wide job an empty shard too; the contrast case is vacuous")
			}
		}
	}
}
