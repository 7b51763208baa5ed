package metrics

import (
	"math"
	"testing"

	"elastisched/internal/job"
)

func finished(id, size int, arr, start, end int64, class job.Class, reqStart int64) *job.Job {
	return &job.Job{
		ID: id, Size: size, Arrival: arr, StartTime: start, FinishTime: end,
		EndTime: end, Class: class, ReqStart: reqStart, State: job.Finished,
	}
}

func TestUtilizationExact(t *testing.T) {
	// 320-proc machine; one 160-proc job runs 0..100 within a window
	// ending at its completion: utilization = 160*100 / (320*100) = 0.5.
	c := NewCollector(320)
	j := finished(1, 160, 0, 0, 100, job.Batch, -1)
	c.JobArrived(j, 0)
	c.JobStarted(j, 0)
	c.JobFinished(j, 100)
	s := c.Summary()
	if s.Utilization != 0.5 {
		t.Errorf("utilization = %g, want 0.5", s.Utilization)
	}
	if s.MeanWait != 0 || s.MeanRun != 100 || s.Slowdown != 1 {
		t.Errorf("wait/run/slowdown = %g/%g/%g", s.MeanWait, s.MeanRun, s.Slowdown)
	}
}

func TestUtilizationTwoPhases(t *testing.T) {
	// Full machine 0..50, half machine 50..100: mean utilization 0.75.
	c := NewCollector(320)
	j1 := finished(1, 160, 0, 0, 100, job.Batch, -1)
	j2 := finished(2, 160, 0, 0, 50, job.Batch, -1)
	c.JobArrived(j1, 0)
	c.JobArrived(j2, 0)
	c.JobStarted(j1, 0)
	c.JobStarted(j2, 0)
	c.JobFinished(j2, 50)
	c.JobFinished(j1, 100)
	if s := c.Summary(); s.Utilization != 0.75 {
		t.Errorf("utilization = %g, want 0.75", s.Utilization)
	}
}

func TestWindowOpensAtFirstArrival(t *testing.T) {
	// Arrival at 100, runs 150..250: window 100..250, area 160*100.
	c := NewCollector(320)
	j := finished(1, 160, 100, 150, 250, job.Batch, -1)
	c.JobArrived(j, 100)
	c.JobStarted(j, 150)
	c.JobFinished(j, 250)
	s := c.Summary()
	want := float64(160*100) / float64(320*150)
	if math.Abs(s.Utilization-want) > 1e-12 {
		t.Errorf("utilization = %g, want %g", s.Utilization, want)
	}
	if s.MeanWait != 50 {
		t.Errorf("wait = %g, want 50", s.MeanWait)
	}
	if s.WindowStart != 100 || s.WindowEnd != 250 {
		t.Errorf("window = [%d, %d]", s.WindowStart, s.WindowEnd)
	}
}

func TestSlowdownPaperDefinition(t *testing.T) {
	// Two jobs: waits 30, 10; runs 100, 100. Slowdown = (20+100)/100 = 1.2.
	c := NewCollector(320)
	j1 := finished(1, 32, 0, 30, 130, job.Batch, -1)
	j2 := finished(2, 32, 0, 10, 110, job.Batch, -1)
	for _, j := range []*job.Job{j1, j2} {
		c.JobArrived(j, j.Arrival)
		c.JobStarted(j, j.StartTime)
		c.JobFinished(j, j.FinishTime)
	}
	if s := c.Summary(); math.Abs(s.Slowdown-1.2) > 1e-12 {
		t.Errorf("slowdown = %g, want 1.2", s.Slowdown)
	}
}

func TestDedicatedAccounting(t *testing.T) {
	c := NewCollector(320)
	onTime := finished(1, 32, 0, 100, 200, job.Dedicated, 100)
	late := finished(2, 32, 0, 150, 250, job.Dedicated, 100)
	batch := finished(3, 32, 0, 10, 110, job.Batch, -1)
	for _, j := range []*job.Job{onTime, late, batch} {
		c.JobArrived(j, j.Arrival)
		c.JobStarted(j, j.StartTime)
		c.JobFinished(j, j.FinishTime)
	}
	s := c.Summary()
	if s.DedicatedJobs != 2 || s.DedicatedOnTime != 0.5 {
		t.Errorf("dedicated = %d ontime = %g", s.DedicatedJobs, s.DedicatedOnTime)
	}
	if s.MeanDedWait != 25 { // (0 + 50) / 2
		t.Errorf("dedicated wait = %g, want 25", s.MeanDedWait)
	}
	if s.MeanBatchWait != 10 {
		t.Errorf("batch wait = %g, want 10", s.MeanBatchWait)
	}
}

func TestOverAllocationPanics(t *testing.T) {
	c := NewCollector(320)
	j := finished(1, 320, 0, 0, 10, job.Batch, -1)
	c.JobArrived(j, 0)
	c.JobStarted(j, 0)
	defer func() {
		if recover() == nil {
			t.Error("busy beyond machine did not panic")
		}
	}()
	c.JobStarted(finished(2, 32, 0, 0, 10, job.Batch, -1), 0)
}

func TestNegativeBusyPanics(t *testing.T) {
	c := NewCollector(320)
	defer func() {
		if recover() == nil {
			t.Error("negative busy did not panic")
		}
	}()
	c.JobFinished(finished(1, 32, 0, 0, 10, job.Batch, -1), 10)
}

func TestSizeChanged(t *testing.T) {
	// 160 procs 0..50, then grown to 320 for 50..100: util = (160*50 +
	// 320*50) / (320*100) = 0.75.
	c := NewCollector(320)
	j := finished(1, 160, 0, 0, 100, job.Batch, -1)
	c.JobArrived(j, 0)
	c.JobStarted(j, 0)
	c.SizeChanged(160, 50)
	j.Size = 320
	c.JobFinished(j, 100)
	if s := c.Summary(); s.Utilization != 0.75 {
		t.Errorf("utilization = %g, want 0.75", s.Utilization)
	}
}

func TestPercentiles(t *testing.T) {
	c := NewCollector(320)
	for i := 1; i <= 100; i++ {
		j := finished(i, 32, 0, int64(i), int64(i)+10, job.Batch, -1)
		c.JobArrived(j, 0)
		c.JobStarted(j, j.StartTime)
		c.JobFinished(j, j.FinishTime)
	}
	s := c.Summary()
	if s.MaxWait != 100 {
		t.Errorf("max wait = %g, want 100", s.MaxWait)
	}
	if s.MedianWait < 45 || s.MedianWait > 55 {
		t.Errorf("median = %g", s.MedianWait)
	}
	if s.P95Wait < 90 || s.P95Wait > 100 {
		t.Errorf("p95 = %g", s.P95Wait)
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewCollector(320).Summary()
	if s.Utilization != 0 || s.MeanWait != 0 || s.Slowdown != 0 || s.Jobs != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	if (Summary{}).String() == "" {
		t.Error("empty summary string")
	}
}

func TestAverage(t *testing.T) {
	a := Summary{Utilization: 0.8, MeanWait: 100, MeanRun: 50, Slowdown: 3}
	b := Summary{Utilization: 0.6, MeanWait: 200, MeanRun: 150, Slowdown: 5}
	avg := Average([]Summary{a, b})
	if avg.Utilization != 0.7 || avg.MeanWait != 150 || avg.MeanRun != 100 || avg.Slowdown != 4 {
		t.Errorf("average wrong: %+v", avg)
	}
	if got := Average(nil); got != (Summary{}) {
		t.Error("average of nothing not zero")
	}
}

func TestBoundedSlowdownFloor(t *testing.T) {
	// A 1-second job with 9s wait: bounded slowdown uses the 10s floor:
	// (9 + 10)/10 = 1.9, not (9+1)/1 = 10.
	c := NewCollector(320)
	j := finished(1, 32, 0, 9, 10, job.Batch, -1)
	c.JobArrived(j, 0)
	c.JobStarted(j, 9)
	c.JobFinished(j, 10)
	if s := c.Summary(); math.Abs(s.MeanBoundedSlow-1.9) > 1e-12 {
		t.Errorf("bounded slowdown = %g, want 1.9", s.MeanBoundedSlow)
	}
}

func TestSteadyStateWindow(t *testing.T) {
	// 20 identical full-machine jobs back to back: steady-state utilization
	// is exactly 1; ramp effects do not exist, so overall == steady.
	c := NewCollector(320)
	for i := 0; i < 20; i++ {
		s := int64(i * 100)
		j := finished(i+1, 320, 0, s, s+100, job.Batch, -1)
		c.JobArrived(j, 0)
		c.JobStarted(j, s)
		c.JobFinished(j, s+100)
	}
	s := c.Summary()
	if s.SteadyUtilization != 1 {
		t.Errorf("steady utilization = %g, want 1", s.SteadyUtilization)
	}
	if s.SteadyWindow[0] >= s.SteadyWindow[1] {
		t.Errorf("degenerate steady window %v", s.SteadyWindow)
	}
}

func TestSteadyStateExcludesDrain(t *testing.T) {
	// 18 full-machine jobs, then a long lone half-machine job: the drain
	// tail depresses overall utilization but not the steady window.
	c := NewCollector(320)
	var tEnd int64
	for i := 0; i < 18; i++ {
		s := int64(i * 100)
		j := finished(i+1, 320, 0, s, s+100, job.Batch, -1)
		c.JobArrived(j, 0)
		c.JobStarted(j, s)
		c.JobFinished(j, s+100)
		tEnd = s + 100
	}
	for i := 18; i < 20; i++ {
		j := finished(i+1, 160, 0, tEnd, tEnd+2000, job.Batch, -1)
		c.JobArrived(j, 0)
		c.JobStarted(j, tEnd)
		c.JobFinished(j, tEnd+2000)
		tEnd += 2000
	}
	s := c.Summary()
	if s.SteadyUtilization <= s.Utilization {
		t.Errorf("steady %g should exceed overall %g with a drain tail",
			s.SteadyUtilization, s.Utilization)
	}
}

func TestSteadyStateTooFewJobs(t *testing.T) {
	c := NewCollector(320)
	j := finished(1, 320, 0, 0, 100, job.Batch, -1)
	c.JobArrived(j, 0)
	c.JobStarted(j, 0)
	c.JobFinished(j, 100)
	s := c.Summary()
	if s.SteadyUtilization != 0 {
		t.Errorf("steady stats should be zero below 10 jobs, got %g", s.SteadyUtilization)
	}
}

func TestWindowUtilization(t *testing.T) {
	c := NewCollector(320)
	j := finished(1, 160, 0, 0, 100, job.Batch, -1)
	c.JobArrived(j, 0)
	c.JobStarted(j, 0)
	c.JobFinished(j, 100)
	// 160 of 320 processors busy over [0, 100]: half the window's capacity.
	if got := windowArea(c.st.BusySteps, 0, 100); got != 16000 {
		t.Errorf("window area = %g, want 16000", got)
	}
	if got := windowArea(c.st.BusySteps, 50, 150); got != 8000 {
		t.Errorf("half-overlap window area = %g, want 8000", got)
	}
	if got := windowArea(c.st.BusySteps, 100, 100); got != 0 {
		t.Errorf("empty window area = %g, want 0", got)
	}
}

func TestMaxQueueDepth(t *testing.T) {
	c := NewCollector(320)
	j1 := finished(1, 32, 0, 10, 20, job.Batch, -1)
	j2 := finished(2, 32, 0, 15, 25, job.Batch, -1)
	j3 := finished(3, 32, 5, 30, 40, job.Batch, -1)
	// Three arrive before any starts: depth peaks at 3.
	c.JobArrived(j1, 0)
	c.JobArrived(j2, 0)
	c.JobArrived(j3, 5)
	c.JobStarted(j1, 10)
	c.JobStarted(j2, 15)
	c.JobFinished(j1, 20)
	c.JobFinished(j2, 25)
	c.JobStarted(j3, 30)
	c.JobFinished(j3, 40)
	if s := c.Summary(); s.MaxQueueDepth != 3 {
		t.Errorf("max queue depth = %d, want 3", s.MaxQueueDepth)
	}
}
