package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"elastisched/internal/job"
	"elastisched/internal/sched"
)

// The traced run times each layer from outside: it decorates the calls the
// benchmark makes into a layer (Session.Step, Load, Result, Generate,
// Validate, Sweep.Run, dispatch.Run) and the scheduler the engine calls
// back into. Coarse calls become spans; the hot call sites (Schedule, the
// engine's start callback, Stateful deltas, resize proposals) only add to
// per-instance accumulators, so the trace stays small however long the run.

// span is one timed interval of the traced run. Start and End are
// nanoseconds since the tracer was created; Parent is the enclosing span's
// ID, 0 at the top level.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// schedAcc accumulates one scheduler instance's call-site timings.
type schedAcc struct {
	policy string

	schedule     time.Duration // inside Schedule, starts included
	start        time.Duration // inside the engine's start callback
	delta        time.Duration // inside Stateful delta handlers
	deltaOutside time.Duration // the part of delta not already inside Schedule
	propose      time.Duration // inside ProposeResizes

	cycles, useful, starts, refused, deltas, proposals int64
}

// add folds o into a.
func (a *schedAcc) add(o *schedAcc) {
	a.schedule += o.schedule
	a.start += o.start
	a.delta += o.delta
	a.deltaOutside += o.deltaOutside
	a.propose += o.propose
	a.cycles += o.cycles
	a.useful += o.useful
	a.starts += o.starts
	a.refused += o.refused
	a.deltas += o.deltas
	a.proposals += o.proposals
}

// layer names a call site the benchmark times itself.
type layer int

const (
	layerStep     layer = iota // Session.Step, every instant of a session
	layerLoad                  // engine.New + Session.Load
	layerSummary               // Session.Result
	layerGenerate              // workload.Generate
	layerValidate              // cwf.Workload.Validate
	layerSweep                 // experiment.Sweep.Run
	layerDispatch              // dispatch.Run
	nLayers
)

// layerTimes are one pass's totals per layer.
type layerTimes [nLayers]time.Duration

// tracer records the traced run. A nil *tracer is the untraced run: every
// method is a no-op on it, so workload code calls it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // IDs of the spans enclosing the current call

	layers   layerTimes
	instants int64 // Session.Step calls that advanced a session
	scheds   []*schedAcc
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned and reports its duration. Spans close
// in LIFO order.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	sp := &t.spans[id-1]
	sp.End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(sp.End - sp.Start)
}

// timed runs f inside a span and charges its duration to layer l.
func (t *tracer) timed(name string, l layer, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.begin(name)
	err := f()
	t.layers[l] += t.end(id)
	return err
}

// charge closes span id and charges its duration to layer l.
func (t *tracer) charge(id int, l layer) {
	if t != nil {
		t.layers[l] += t.end(id)
	}
}

// wrap decorates a scheduler instance of the named policy with call-site
// timing; untraced, it returns the instance itself.
func (t *tracer) wrap(policy string, s sched.Scheduler) sched.Scheduler {
	if t == nil {
		return s
	}
	acc := &schedAcc{policy: policy}
	t.scheds = append(t.scheds, acc)
	return newTimedSched(s, acc)
}

// takePass returns the layer timings, the instant count and the per-policy
// scheduler totals accumulated since the previous call, and resets them.
func (t *tracer) takePass() (layerTimes, int64, map[string]*schedAcc) {
	byPolicy := make(map[string]*schedAcc)
	for _, a := range t.scheds {
		p := byPolicy[a.policy]
		if p == nil {
			p = &schedAcc{policy: a.policy}
			byPolicy[a.policy] = p
		}
		p.add(a)
	}
	lt, n := t.layers, t.instants
	t.layers, t.instants = layerTimes{}, 0
	t.scheds = t.scheds[:0]
	return lt, n, byPolicy
}

// traceFile is the document the traced run writes at exit.
type traceFile struct {
	Context  map[string]string             `json:"context"`
	Layers   map[string]float64            `json:"layers"`
	ByPolicy map[string]map[string]float64 `json:"by_policy"`
	Spans    []span                        `json:"spans"`
}

// write stores the spans with the per-layer summary at path.
func (t *tracer) write(path string, ctx map[string]string, layers map[string]float64, byPolicy map[string]map[string]float64) error {
	b, err := json.MarshalIndent(traceFile{Context: ctx, Layers: layers, ByPolicy: byPolicy, Spans: t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// timedSched times one scheduler instance's Schedule calls and, for the
// duration of each, the engine's start callback. It exposes only the
// Scheduler methods; newTimedSched adds the optional interfaces the inner
// policy implements, so the engine sees exactly the capabilities it would
// see undecorated.
type timedSched struct {
	inner sched.Scheduler
	acc   *schedAcc

	engineStart func(*job.Job) bool // the engine's callback, while swapped out
	startFn     func(*job.Job) bool // d.timedStart, bound once so swapping allocates nothing
	inSchedule  bool
}

func newTimedSched(inner sched.Scheduler, acc *schedAcc) sched.Scheduler {
	d := &timedSched{inner: inner, acc: acc}
	d.startFn = d.timedStart
	st, isStateful := inner.(sched.Stateful)
	m, isMalleable := inner.(sched.Malleable)
	switch {
	case isStateful && isMalleable:
		return &timedStatefulMalleable{d, timedDeltas{d, st}, timedProposals{d, m}}
	case isStateful:
		return &timedStateful{d, timedDeltas{d, st}}
	case isMalleable:
		return &timedMalleable{d, timedProposals{d, m}}
	}
	return d
}

func (d *timedSched) Name() string        { return d.inner.Name() }
func (d *timedSched) Heterogeneous() bool { return d.inner.Heterogeneous() }

func (d *timedSched) Schedule(ctx *sched.Context) {
	d.engineStart = ctx.StartFn
	ctx.StartFn = d.startFn
	d.inSchedule = true
	starts := d.acc.starts
	t := time.Now()
	d.inner.Schedule(ctx)
	d.acc.schedule += time.Since(t)
	d.inSchedule = false
	ctx.StartFn = d.engineStart
	d.engineStart = nil
	d.acc.cycles++
	if d.acc.starts > starts {
		d.acc.useful++
	}
}

func (d *timedSched) timedStart(j *job.Job) bool {
	t := time.Now()
	ok := d.engineStart(j)
	d.acc.start += time.Since(t)
	if ok {
		d.acc.starts++
	} else {
		d.acc.refused++
	}
	return ok
}

// delta charges one Stateful handler call that began at t.
func (d *timedSched) delta(t time.Time) {
	el := time.Since(t)
	d.acc.delta += el
	d.acc.deltas++
	if !d.inSchedule {
		d.acc.deltaOutside += el
	}
}

// timedDeltas forwards the Stateful feed to the inner policy, timing each
// handler.
type timedDeltas struct {
	d  *timedSched
	st sched.Stateful
}

func (p timedDeltas) ResetDeltas() {
	t := time.Now()
	p.st.ResetDeltas()
	p.d.delta(t)
}

func (p timedDeltas) JobArrived(j *job.Job, now int64) {
	t := time.Now()
	p.st.JobArrived(j, now)
	p.d.delta(t)
}

func (p timedDeltas) JobStarted(j *job.Job, now int64) {
	t := time.Now()
	p.st.JobStarted(j, now)
	p.d.delta(t)
}

func (p timedDeltas) JobFinished(j *job.Job, now int64) {
	t := time.Now()
	p.st.JobFinished(j, now)
	p.d.delta(t)
}

func (p timedDeltas) JobRetimed(j *job.Job, oldEnd, now int64) {
	t := time.Now()
	p.st.JobRetimed(j, oldEnd, now)
	p.d.delta(t)
}

func (p timedDeltas) JobResized(j *job.Job, oldSize int, now int64) {
	t := time.Now()
	p.st.JobResized(j, oldSize, now)
	p.d.delta(t)
}

func (p timedDeltas) QueueChanged() {
	t := time.Now()
	p.st.QueueChanged()
	p.d.delta(t)
}

func (p timedDeltas) JobKilled(j *job.Job, now int64) {
	t := time.Now()
	p.st.JobKilled(j, now)
	p.d.delta(t)
}

func (p timedDeltas) CapacityChanged(now int64) {
	t := time.Now()
	p.st.CapacityChanged(now)
	p.d.delta(t)
}

// timedProposals forwards resize proposals to the inner policy, timing and
// counting them.
type timedProposals struct {
	d *timedSched
	m sched.Malleable
}

func (p timedProposals) ProposeResizes(ctx *sched.Context) []sched.Resize {
	t := time.Now()
	out := p.m.ProposeResizes(ctx)
	p.d.acc.propose += time.Since(t)
	p.d.acc.proposals += int64(len(out))
	return out
}

type timedStateful struct {
	*timedSched
	timedDeltas
}

type timedMalleable struct {
	*timedSched
	timedProposals
}

type timedStatefulMalleable struct {
	*timedSched
	timedDeltas
	timedProposals
}
