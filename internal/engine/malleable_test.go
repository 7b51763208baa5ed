package engine

import (
	"bytes"
	"math/rand"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/sched"
	"elastisched/internal/trace"
	"elastisched/internal/workload"
)

// randomResizer decorates a scheduler with adversarial malleability: at most
// once per scheduling instant it proposes a random lawful resize for a
// fraction of the running malleable jobs. Unlike AutoResize it pursues no
// objective, which makes it the right driver for property tests — an
// invariant that survives it belongs to the resize pipeline, not to the
// politeness of a particular policy.
type randomResizer struct {
	sched.Scheduler
	r    *rand.Rand
	last int64
}

func newRandomResizer(inner sched.Scheduler, seed int64) *randomResizer {
	return &randomResizer{Scheduler: inner, r: rand.New(rand.NewSource(seed)), last: -1}
}

// ProposeResizes implements sched.Malleable. Proposing only on the first
// cycle of each instant keeps the fixed-point loop terminating: once the
// engine re-runs Schedule after applying the proposals, the repeated call
// returns nothing.
func (rr *randomResizer) ProposeResizes(ctx *sched.Context) []sched.Resize {
	if ctx.Now == rr.last {
		return nil
	}
	rr.last = ctx.Now
	unit := ctx.Machine.Unit()
	var out []sched.Resize
	for _, j := range ctx.Active.Jobs() {
		if j.Class != job.Batch || !j.Malleable() || !ctx.Machine.AllUp(j.ID) {
			continue
		}
		if rr.r.Float64() >= 0.4 {
			continue
		}
		lo := (j.MinProcs + unit - 1) / unit
		if lo < 1 {
			lo = 1
		}
		hi := j.MaxProcs / unit
		if hi < lo {
			continue
		}
		if ns := (lo + rr.r.Intn(hi-lo+1)) * unit; ns != j.Size {
			out = append(out, sched.Resize{Job: j, NewSize: ns})
		}
	}
	return out
}

// checkSpanWork replays a span's resize chain and bounds the processor-
// seconds it delivered against the work its dispatch promised:
//
//   - no work is ever lost: ceil-rounding in RescaleRemaining only rounds
//     the remaining runtime up, so delivered >= Size·Planned;
//   - no work is invented beyond the accounting slack: each resize adds at
//     most one second at the new rate plus the reconfiguration overhead, so
//     delivered <= Size·Planned + Σ NewSize·(1+overhead).
func checkSpanWork(t *testing.T, sp trace.Span, overhead int64, seed int64) {
	t.Helper()
	if sp.Killed || sp.Planned <= 0 || len(sp.Resizes) == 0 {
		return
	}
	want := int64(sp.Size) * sp.Planned
	var delivered, slack int64
	tcur, size := sp.Start, sp.Size
	for _, rz := range sp.Resizes {
		delivered += int64(size) * (rz.Time - tcur)
		tcur, size = rz.Time, rz.NewSize
		slack += int64(rz.NewSize) * (1 + overhead)
	}
	delivered += int64(size) * (sp.End - tcur)
	if delivered < want {
		t.Errorf("seed %d: job %d lost work: delivered %d proc-s, promised %d (%d resizes)",
			seed, sp.JobID, delivered, want, len(sp.Resizes))
	}
	if delivered > want+slack {
		t.Errorf("seed %d: job %d invented work: delivered %d proc-s, promised %d + slack %d (%d resizes)",
			seed, sp.JobID, delivered, want, slack, len(sp.Resizes))
	}
}

// TestPropertyResizeWorkConservation: under an adversarial stream of random
// lawful resizes, every job still delivers exactly the work it was
// dispatched with (modulo the documented ceil slack and reconfiguration
// overhead), on scatter and contiguous machines alike.
func TestPropertyResizeWorkConservation(t *testing.T) {
	for _, tc := range []struct {
		name       string
		contiguous bool
		overhead   int64
	}{
		{"scatter", false, 0},
		{"scatter-overhead", false, 4},
		{"contiguous", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resizes := 0
			for seed := int64(1); seed <= 4; seed++ {
				p := workload.DefaultParams()
				p.Seed = seed
				p.N = 150
				p.TargetLoad = 0.9
				p.PM = 1.0
				w, err := workload.Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				rec := trace.NewRecorder(320, 32)
				rr := newRandomResizer(&sched.EASY{}, seed*31+tc.overhead)
				_, err = Run(w, Config{
					M: 320, Unit: 32, Scheduler: rr, Observer: rec,
					Contiguous: tc.contiguous, Malleable: true,
					ResizeOverhead: tc.overhead, Paranoid: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, sp := range rec.Spans() {
					resizes += len(sp.Resizes)
					checkSpanWork(t, sp, tc.overhead, seed)
				}
			}
			if resizes == 0 {
				t.Fatal("random resizer never landed a resize; the property was not exercised")
			}
		})
	}
}

// FuzzMalleableOps interleaves online injection, client ECCs, scheduler-
// initiated resizes and fault kills against one session, with snapshot
// round trips at arbitrary prefixes, and requires the run to drain without
// violating any engine invariant (Paranoid mode) and to produce a result.
func FuzzMalleableOps(f *testing.F) {
	f.Add([]byte{0, 3, 50, 5, 1, 2, 6, 3, 9, 4, 0, 7, 80, 0, 1, 1, 4, 2, 20})
	f.Add([]byte{3, 200, 0, 9, 100, 10, 4, 1, 0, 2, 30, 2, 7})
	f.Add([]byte{0, 1, 1, 0, 4, 0, 2, 2, 3, 255, 1, 3, 1, 4, 4})
	// A scripted trace past the seed workload's span, so faults keep
	// firing while injected jobs run.
	ft, err := fault.Generate(fault.GenParams{Groups: 10, MTBF: 20_000, MTTR: 800, Horizon: 200_000, Seed: 11})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		cfg := func() Config {
			return Config{
				M: 320, Unit: 32,
				Scheduler:  sched.NewAutoResize(&sched.EASY{}),
				ProcessECC: true,
				Malleable:  true, ResizeOverhead: 2,
				Paranoid: true,
				Faults:   &FaultConfig{Trace: ft},
			}
		}
		s, err := New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		// Seed workload: Load arms the fault trace; everything else arrives
		// online through Inject/InjectCommand below.
		p := workload.DefaultParams()
		p.Seed = 5
		p.N = 20
		p.TargetLoad = 0.8
		p.PM = 1.0
		w, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(w); err != nil {
			t.Fatal(err)
		}

		nextID := 1_000
		ids := make([]int, 0, len(w.Jobs)+len(ops))
		for _, j := range w.Jobs {
			ids = append(ids, j.ID)
		}
		i := 0
		arg := func() byte {
			if i < len(ops) {
				b := ops[i]
				i++
				return b
			}
			return 0
		}
		for i < len(ops) {
			switch arg() % 5 {
			case 0: // inject a batch job, malleable half the time
				size := (1 + int(arg())%10) * 32
				j := &job.Job{
					ID: nextID, Size: size, Dur: int64(1+int(arg())%200) * 10,
					Arrival: s.Now() + int64(arg()%50), ReqStart: -1, Class: job.Batch,
				}
				if size > 32 && arg()%2 == 0 {
					j.MinProcs, j.MaxProcs = 32, size
				}
				if err := s.Inject(j); err != nil {
					t.Fatalf("inject %+v: %v", j, err)
				}
				ids = append(ids, nextID)
				nextID++
			case 1: // inject a client ECC; lawful rejections are fine
				if len(ids) == 0 {
					continue
				}
				types := [...]cwf.ReqType{cwf.ExtendTime, cwf.ReduceTime, cwf.ExtendProc, cwf.ReduceProc}
				c := cwf.Command{
					JobID:  ids[int(arg())%len(ids)],
					Issue:  s.Now() + int64(arg()%30),
					Type:   types[arg()%4],
					Amount: int64(1 + arg()%64),
				}
				_ = s.InjectCommand(c)
			case 2: // drain a few events
				for k, n := byte(0), arg()%8; k < n; k++ {
					ok, err := s.Step()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
				}
			case 3: // advance wall-clock
				if err := s.RunUntil(s.Now() + int64(arg())*16); err != nil {
					t.Fatal(err)
				}
			case 4: // snapshot round trip; continue in the restored session
				sn, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := sn.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeSnapshot(&buf)
				if err != nil {
					t.Fatal(err)
				}
				r, err := New(cfg())
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Restore(dec); err != nil {
					t.Fatal(err)
				}
				s = r
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Result(); err != nil {
			t.Fatal(err)
		}
	})
}
