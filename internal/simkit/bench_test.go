package simkit

import "testing"

// BenchmarkEventThroughput measures raw kernel dispatch rate: schedule and
// drain 10k events per iteration.
func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for k := Time(0); k < 10000; k++ {
			e.AtArg(k, func(Time, any) {}, nil)
		}
		e.Run()
	}
}

// BenchmarkScheduleDispatch measures the steady-state schedule/dispatch
// cycle on a long-lived engine: one AtArg and one Step per iteration against a
// standing backlog, the regime a mid-simulation event kernel lives in. The
// target is zero allocations per operation.
func BenchmarkScheduleDispatch(b *testing.B) {
	e := New()
	fn := func(Time, any) {}
	const backlog = 512
	for i := 0; i < backlog; i++ {
		e.AtArg(Time(i), fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	t := Time(backlog)
	for i := 0; i < b.N; i++ {
		e.AtArg(t, fn, nil)
		e.Step()
		t++
	}
}

// BenchmarkCancelReschedule measures the ECC retiming pattern: a pending
// event is cancelled and rescheduled at a new timestamp, over and over,
// against a standing backlog.
func BenchmarkCancelReschedule(b *testing.B) {
	e := New()
	fn := func(Time, any) {}
	const far = Time(1) << 40
	for i := 0; i < 64; i++ {
		e.AtArg(far+Time(i), fn, nil)
	}
	h := e.AtArg(far+100, fn, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(h)
		h = e.AtArg(far+100+Time(i%1000), fn, nil)
	}
}

// BenchmarkCancelHeavy measures cancellation churn: half the scheduled
// events are cancelled before the drain.
func BenchmarkCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		evs := make([]Handle, 0, 10000)
		for k := Time(0); k < 10000; k++ {
			evs = append(evs, e.AtArg(k, func(Time, any) {}, nil))
		}
		for k := 0; k < len(evs); k += 2 {
			e.Cancel(evs[k])
		}
		e.Run()
	}
}
