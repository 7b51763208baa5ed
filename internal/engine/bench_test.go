package engine

import (
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/fault"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

// BenchmarkSimulate500 measures end-to-end simulation throughput of one
// paper-sized run (500 jobs, Load 0.9) per scheduling policy.
func BenchmarkSimulate500(b *testing.B) {
	benchSimulate(b, paper500(), newSessionPerRun, "FCFS", "EASY", "CONS", "CONS-D", "LOS", "Delayed-LOS", "EASY-D", "LOS-D", "Hybrid-LOS")
}

// BenchmarkSimulate500Reset is the same run through one session that is
// Reset for every iteration, as each sweep worker runs. Its allocs/op is
// what a run costs beyond the storage the previous run leaves behind
// (mostly the policy's own state, new per run); benchgate pins it, so a
// change that brings back per-run buffers fails the alloc gate.
func BenchmarkSimulate500Reset(b *testing.B) {
	benchSimulate(b, paper500(), oneSessionReset, "EASY", "LOS", "Delayed-LOS")
}

// paper500 is the paper-sized workload of the Simulate500 family.
func paper500() workload.Params {
	p := workload.DefaultParams()
	p.N = 500
	p.PS = 0.5
	p.PE = 0.2
	p.PR = 0.1
	p.TargetLoad = 0.9
	return p
}

// BenchmarkSimulateOverload measures the conservative policies in the
// overloaded regime: 1200 jobs offered at load 1.4, so the queue grows for
// the whole run and every cycle walks a deep queue. This is elastibench's
// deep-queue trace shape.
func BenchmarkSimulateOverload(b *testing.B) {
	p := workload.DefaultParams()
	p.N = 1200
	p.PE = 0.2
	p.PR = 0.1
	p.TargetLoad = 1.4
	benchSimulate(b, p, newSessionPerRun, "CONS", "CONS-D")
}

// runner executes one whole run. newRunner returns one per sub-benchmark.
type runner func(*cwf.Workload, Config) (*Result, error)

// newSessionPerRun runs every iteration through Run: New, Load, Run,
// Result on a new session.
func newSessionPerRun() runner { return Run }

// oneSessionReset runs every iteration on one session, through Reset.
func oneSessionReset() runner {
	var s Session
	return func(w *cwf.Workload, cfg Config) (*Result, error) {
		if err := s.Reset(cfg, w); err != nil {
			return nil, err
		}
		if err := s.Run(); err != nil {
			return nil, err
		}
		return s.Result()
	}
}

// benchSimulate runs one simulation per iteration for each named policy on
// an M=320/32 machine: batch-only policies replay the trace p generates,
// heterogeneous ones the same parameters with P_D = 0.3.
func benchSimulate(b *testing.B, p workload.Params, newRunner func() runner, names ...string) {
	batch, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	p.PD = 0.3
	hetero, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			w := batch
			if freshScheduler(name).Heterogeneous() {
				w = hetero
			}
			run := newRunner()
			config := func() Config {
				return Config{M: 320, Unit: 32, Scheduler: freshScheduler(name), ProcessECC: true}
			}
			// A warm-up run outside the timer: a reused session's first run
			// allocates the storage every later run reuses.
			r, err := run(w, config())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := run(w, config()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Events), "events")
			b.ReportMetric(float64(r.Cycles), "cycles")
		})
	}
}

// BenchmarkSimulate500Malleable measures the same paper-sized run with the
// malleability pipeline engaged: every batch job carries bounds, the
// AutoResize decorator proposes shrinks/expands each cycle, and resizes are
// work-conserving with a reconfiguration overhead. Compare against
// BenchmarkSimulate500/EASY to read the cost of true malleability; the
// rigid series itself runs with Malleable off and is gated by benchgate.
func BenchmarkSimulate500Malleable(b *testing.B) {
	p := workload.DefaultParams()
	p.N = 500
	p.PS = 0.5
	p.PE = 0.2
	p.PR = 0.1
	p.TargetLoad = 0.9
	p.PM = 1.0
	w, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("EASY-M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := Run(w, Config{
				M: 320, Unit: 32, Scheduler: sched.NewAutoResize(&sched.EASY{}),
				ProcessECC: true, Malleable: true, ResizeOverhead: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(r.Events), "events")
				b.ReportMetric(float64(r.Summary.SchedulerResizes), "resizes")
			}
		}
	})
}

// BenchmarkSimulate500Faults measures the paper-sized run with the fault
// pipeline engaged end to end: sampled node-group outages, requeue with
// backoff, and periodic checkpointing with its restart-from-checkpoint
// kill path. Compare against BenchmarkSimulate500/EASY to read the cost
// of fault injection; the EASY cell is required by benchgate so the fault
// hot path cannot silently regress.
func BenchmarkSimulate500Faults(b *testing.B) {
	p := workload.DefaultParams()
	p.N = 500
	p.PS = 0.5
	p.PE = 0.2
	p.PR = 0.1
	p.TargetLoad = 0.9
	w, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"EASY", "Delayed-LOS"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Run(w, Config{
					M: 320, Unit: 32, Scheduler: freshScheduler(name), ProcessECC: true,
					Faults: &FaultConfig{
						MTBF: 40000, MTTR: 2000, Seed: 7,
						Retry:      fault.RetryPolicy{Restart: fault.RemainingRuntime, Backoff: 30},
						Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 1800, CheckpointCost: 60,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(r.Events), "events")
					b.ReportMetric(float64(r.Summary.KilledJobs), "kills")
					b.ReportMetric(float64(r.Summary.CheckpointsTaken), "ckpts")
				}
			}
		})
	}
}

// BenchmarkWorkloadGenerate measures the Lublin-model generator.
func BenchmarkWorkloadGenerate(b *testing.B) {
	p := workload.DefaultParams()
	p.N = 500
	p.PD = 0.3
	p.PE = 0.2
	p.PR = 0.1
	p.TargetLoad = 0.9
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		if _, err := workload.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}
