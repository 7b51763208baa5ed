package experiment

import (
	"fmt"
	"slices"
	"strings"

	"elastisched/internal/fault"
	"elastisched/internal/metrics"
	"elastisched/internal/plot"
	"elastisched/internal/stats"
)

// Metric identifies a reported measure and its direction.
type Metric struct {
	Name   string
	Label  string
	Get    func(metrics.Summary) float64
	Higher bool // true if larger is better (utilization)
}

// The paper's three headline metrics plus the fault diagnostics.
var (
	MetricUtil = Metric{"util", "mean utilization", func(s metrics.Summary) float64 { return s.Utilization }, true}
	MetricWait = Metric{"wait", "mean job waiting time (s)", func(s metrics.Summary) float64 { return s.MeanWait }, false}
	MetricSlow = Metric{"slowdown", "slowdown", func(s metrics.Summary) float64 { return s.Slowdown }, false}

	// Fault-pipeline metrics for robustness and checkpoint-economics sweeps.
	MetricLostWork  = Metric{"lostwork", "lost work (proc·s)", func(s metrics.Summary) float64 { return s.LostWorkSeconds }, false}
	MetricFaultCost = Metric{"faultcost", "lost work + checkpoint overhead (proc·s)",
		func(s metrics.Summary) float64 { return s.LostWorkSeconds + s.CheckpointOverheadSeconds }, false}
)

// Metrics lists the standard report metrics in order.
func Metrics() []Metric { return []Metric{MetricUtil, MetricWait, MetricSlow} }

// algoIndex finds an algorithm's row, or -1.
func (r *Result) algoIndex(name string) int {
	for i, a := range r.Sweep.Algorithms {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Series extracts one plottable line per algorithm for a metric.
func (r *Result) Series(m Metric) []plot.Series {
	out := make([]plot.Series, 0, len(r.Sweep.Algorithms))
	for ai, a := range r.Sweep.Algorithms {
		s := plot.Series{Name: a.Name}
		for pi, pt := range r.Sweep.Points {
			s.X = append(s.X, pt.X)
			s.Y = append(s.Y, m.Get(r.Cells[ai][pi].Summary))
		}
		out = append(out, s)
	}
	return out
}

// style is one way to print a labelled table of numbers: the formats of
// the corner cell, of each column header, of each row label and of each
// value cell. A markdown style also rules the header off.
type style struct {
	corner, head, label, cell string
	markdown                  bool
}

// The report styles: the sweep grids (Table, Markdown), the improvement
// matrices (ImprovementTable, ImprovementMarkdown) and the significance
// matrix (SignificanceTable).
var (
	textGrid   = style{corner: "%-10s", head: " %16s", label: "%-10.3g", cell: " %16.4f"}
	mdGrid     = style{corner: "| %s |", head: " %s |", label: "| %.3g |", cell: " %.4f |", markdown: true}
	textImprov = style{corner: "%-22s", head: " %14s", label: "%-22s", cell: " %14.2f"}
	mdImprov   = style{corner: "| %s |", head: " %s |", label: "| %s |", cell: " %.2f |", markdown: true}
	textSig    = style{corner: "%-26s", head: " %14s", label: "%-26s", cell: " %14.4f"}
)

// render writes title, a header row (corner, then heads) and one row per
// label with val(row, column) in each cell.
func (st style) render(title, corner string, heads []string, labels []any,
	val func(row, col int) (float64, error)) (string, error) {
	var b strings.Builder
	b.WriteString(title)
	fmt.Fprintf(&b, st.corner, corner)
	for _, h := range heads {
		fmt.Fprintf(&b, st.head, h)
	}
	b.WriteByte('\n')
	if st.markdown {
		b.WriteString("|" + strings.Repeat("---|", len(heads)+1) + "\n")
	}
	for row, l := range labels {
		fmt.Fprintf(&b, st.label, l)
		for col := range heads {
			v, err := val(row, col)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, st.cell, v)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// grid renders the sweep as one row per point and one column per
// (metric, algorithm) pair, metric-major, headed "<algorithm><join><metric>".
func (r *Result) grid(st style, title, join string, ms []Metric) string {
	if len(ms) == 0 {
		ms = Metrics()
	}
	algos := r.Sweep.Algorithms
	var heads []string
	for _, m := range ms {
		for _, a := range algos {
			heads = append(heads, a.Name+join+m.Name)
		}
	}
	labels := make([]any, len(r.Sweep.Points))
	for pi, pt := range r.Sweep.Points {
		labels[pi] = pt.X
	}
	// A grid's cells read summaries and cannot fail.
	out, _ := st.render(fmt.Sprintf(title, r.Sweep.ID, r.Sweep.Title), r.Sweep.XLabel, heads, labels,
		func(pi, col int) (float64, error) {
			return ms[col/len(algos)].Get(r.Cells[col%len(algos)][pi].Summary), nil
		})
	return out
}

// Table renders the sweep as fixed-width rows: one row per point, one
// column group per metric per algorithm.
func (r *Result) Table(ms ...Metric) string { return r.grid(textGrid, "%s — %s\n", "/", ms) }

// Markdown renders the sweep as a GitHub-flavored markdown table: one row
// per point, metric columns grouped per algorithm.
func (r *Result) Markdown(ms ...Metric) string {
	return r.grid(mdGrid, "#### %s — %s\n\n", " ", ms)
}

// improvementLabels name the rows of the paper's improvement tables, one
// per Metrics entry.
var improvementLabels = []any{"Utilization", "Job waiting time", "Slowdown"}

// matrix renders one row per Metrics entry and one column per baseline:
// each column is headed by head applied to the baseline's name, each cell
// holds val(target, baseline, metric). Nil labels name the rows by the
// metrics' Labels.
func matrix(st style, title string, labels []any, head, target string, baselines []string,
	val func(target, baseline string, m Metric) (float64, error)) (string, error) {
	ms := Metrics()
	if labels == nil {
		for _, m := range ms {
			labels = append(labels, m.Label)
		}
	}
	heads := make([]string, len(baselines))
	for i, base := range baselines {
		heads[i] = fmt.Sprintf(head, base)
	}
	return st.render(title, "Performance Metric", heads, labels, func(row, col int) (float64, error) {
		return val(target, baselines[col], ms[row])
	})
}

// ImprovementTable renders a paper-style improvement table (e.g. Table IV:
// maximum % improvement of Delayed-LOS over LOS and EASY).
func (r *Result) ImprovementTable(name, target string, baselines []string) (string, error) {
	title := fmt.Sprintf("%s: maximum %% improvement of %s (from %s)\n", name, target, r.Sweep.ID)
	return matrix(textImprov, title, improvementLabels, "%s (%%)", target, baselines, r.MaxImprovement)
}

// ImprovementMarkdown renders a paper-style improvement table as markdown.
func (r *Result) ImprovementMarkdown(name, target string, baselines []string) (string, error) {
	title := fmt.Sprintf("**%s** — maximum %% improvement of %s:\n\n", name, target)
	return matrix(mdImprov, title, improvementLabels, "%s (%%)", target, baselines, r.MaxImprovement)
}

// column is one TSV field after the sweep, x and algorithm keys: its
// header name, its format verb and the value it prints for a cell.
type column struct {
	name, verb string
	get        func(Cell) any
}

// Column groups shared between the TSV layouts.
var (
	headlineCols = []column{
		{"util", "%.6f", func(c Cell) any { return c.Summary.Utilization }},
		{"wait", "%.3f", func(c Cell) any { return c.Summary.MeanWait }},
		{"run", "%.3f", func(c Cell) any { return c.Summary.MeanRun }},
		{"slowdown", "%.5f", func(c Cell) any { return c.Summary.Slowdown }},
	}
	faultCols = []column{
		{"killed", "%d", func(c Cell) any { return c.Summary.KilledJobs }},
		{"retried", "%d", func(c Cell) any { return c.Summary.RetriedJobs }},
		{"dropped", "%d", func(c Cell) any { return c.Summary.DroppedJobs }},
		{"lost_work", "%.1f", func(c Cell) any { return c.Summary.LostWorkSeconds }},
		{"down_procsec", "%.1f", func(c Cell) any { return c.Summary.DownProcSeconds }},
	}
	resizeCols = []column{
		{"resizes", "%d", func(c Cell) any { return c.Summary.SchedulerResizes }},
		{"shrunk_procsec", "%.1f", func(c Cell) any { return c.Summary.ShrunkProcSeconds }},
		{"reconfig_sec", "%.1f", func(c Cell) any { return c.Summary.ReconfigOverheadSeconds }},
	}
	loadCols = []column{
		{"realized_load", "%.4f", func(c Cell) any { return c.RealizedLoad }},
		{"runs", "%d", func(c Cell) any { return c.Runs }},
	}
)

// layout is one TSV column list and the metrics its panel plots as SVG.
type layout struct {
	cols []column
	svg  []Metric
}

// The TSV layouts. Each stays byte-stable for the committed series
// written in it: fault-free panels (the paper's figures), fault-injected
// panels (robustness accounting and malleability counters) and
// checkpointed panels (the fault layout plus the checkpoint-economics
// decomposition, plotted next to the wait curve).
var (
	standardLayout = layout{
		cols: slices.Concat(headlineCols, []column{
			{"bounded_slow", "%.5f", func(c Cell) any { return c.Summary.MeanBoundedSlow }},
			{"p95wait", "%.3f", func(c Cell) any { return c.Summary.P95Wait }},
			{"ded_ontime", "%.4f", func(c Cell) any { return c.Summary.DedicatedOnTime }},
			{"steady_util", "%.6f", func(c Cell) any { return c.Summary.SteadyUtilization }},
			{"steady_wait", "%.3f", func(c Cell) any { return c.Summary.SteadyMeanWait }},
		}, loadCols),
		svg: []Metric{MetricUtil, MetricWait},
	}
	faultLayout = layout{
		cols: slices.Concat(headlineCols, faultCols, resizeCols, loadCols),
		svg:  standardLayout.svg,
	}
	checkpointLayout = layout{
		cols: slices.Concat(headlineCols, faultCols, []column{
			{"checkpoints", "%d", func(c Cell) any { return c.Summary.CheckpointsTaken }},
			{"ckpt_overhead", "%.1f", func(c Cell) any { return c.Summary.CheckpointOverheadSeconds }},
		}, resizeCols, loadCols),
		svg: []Metric{MetricUtil, MetricWait, MetricLostWork, MetricFaultCost},
	}
)

// layout picks the sweep's TSV layout from its points: checkpointed if
// any point checkpoints, else fault-injected if any point injects
// failures, else standard.
func (r *Result) layout() layout {
	l := standardLayout
	for _, pt := range r.Sweep.Points {
		switch fc := pt.Engine.Faults; {
		case fc == nil:
		case fc.Checkpoint != fault.CheckpointNone:
			return checkpointLayout
		default:
			l = faultLayout
		}
	}
	return l
}

// TSV renders machine-readable results, one line per (point, algorithm),
// in the layout the sweep's points call for.
func (r *Result) TSV() string {
	cols := r.layout().cols
	var b strings.Builder
	b.WriteString("sweep\tx\talgorithm")
	for _, col := range cols {
		b.WriteString("\t" + col.name)
	}
	b.WriteByte('\n')
	for pi, pt := range r.Sweep.Points {
		for ai, a := range r.Sweep.Algorithms {
			fmt.Fprintf(&b, "%s\t%g\t%s", r.Sweep.ID, pt.X, a.Name)
			for _, col := range cols {
				fmt.Fprintf(&b, "\t"+col.verb, col.get(r.Cells[ai][pi]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// SVGMetrics lists the metrics the sweep's figures plot as SVG, which
// depend on its TSV layout.
func (r *Result) SVGMetrics() []Metric { return r.layout().svg }

// Plot renders the ASCII chart of a metric across all algorithms.
func (r *Result) Plot(m Metric, width, height int) string {
	title := fmt.Sprintf("%s — %s", r.Sweep.ID, r.Sweep.Title)
	return plot.Render(title, r.Sweep.XLabel, m.Label, r.Series(m), width, height)
}

// PlotSVG renders the figure as an SVG line chart.
func (r *Result) PlotSVG(m Metric, width, height int) string {
	title := fmt.Sprintf("%s — %s", r.Sweep.ID, r.Sweep.Title)
	return plot.SVGLines(title, r.Sweep.XLabel, m.Label, r.Series(m), width, height)
}

// MaxImprovement returns the maximum percentage improvement of target over
// baseline across the sweep's points, in the paper's sense: for
// higher-is-better metrics, 100*(target-baseline)/baseline maximized over
// points; for lower-is-better metrics, 100*(baseline-target)/baseline.
// The paper's Tables IV-VII report exactly this (maximum, not mean, because
// improvements are not uniform across loads — Section V-A).
func (r *Result) MaxImprovement(target, baseline string, m Metric) (float64, error) {
	ti := r.algoIndex(target)
	bi := r.algoIndex(baseline)
	if ti < 0 || bi < 0 {
		return 0, fmt.Errorf("experiment: %q or %q not in sweep %s", target, baseline, r.Sweep.ID)
	}
	best := 0.0
	first := true
	for pi := range r.Sweep.Points {
		tv := m.Get(r.Cells[ti][pi].Summary)
		bv := m.Get(r.Cells[bi][pi].Summary)
		if bv == 0 {
			continue
		}
		var imp float64
		if m.Higher {
			imp = 100 * (tv - bv) / bv
		} else {
			imp = 100 * (bv - tv) / bv
		}
		if first || imp > best {
			best = imp
			first = false
		}
	}
	return best, nil
}

// Summary returns the aggregated summary of one (algorithm, point) cell.
func (r *Result) Summary(algo string, point int) (metrics.Summary, error) {
	ai := r.algoIndex(algo)
	if ai < 0 {
		return metrics.Summary{}, fmt.Errorf("experiment: %q not in sweep %s", algo, r.Sweep.ID)
	}
	if point < 0 || point >= len(r.Sweep.Points) {
		return metrics.Summary{}, fmt.Errorf("experiment: point %d out of range", point)
	}
	return r.Cells[ai][point].Summary, nil
}

// CI95 returns the 95% Student-t confidence interval of a metric for one
// (algorithm, point) cell, from the per-seed runs.
func (r *Result) CI95(algo string, point int, m Metric) (lo, hi float64, err error) {
	ai := r.algoIndex(algo)
	if ai < 0 {
		return 0, 0, fmt.Errorf("experiment: %q not in sweep %s", algo, r.Sweep.ID)
	}
	if point < 0 || point >= len(r.Sweep.Points) {
		return 0, 0, fmt.Errorf("experiment: point %d out of range", point)
	}
	vals := perSeedValues(r.Cells[ai][point], m)
	lo, hi = stats.CI95(vals)
	return lo, hi, nil
}

// PairedP runs a paired t-test of target against baseline over every
// (point, seed) pair — valid because the same seed at the same point
// replays the identical workload under both algorithms — and returns the
// two-sided p-value for the metric difference.
func (r *Result) PairedP(target, baseline string, m Metric) (float64, error) {
	ti := r.algoIndex(target)
	bi := r.algoIndex(baseline)
	if ti < 0 || bi < 0 {
		return 0, fmt.Errorf("experiment: %q or %q not in sweep %s", target, baseline, r.Sweep.ID)
	}
	var a, b []float64
	for pi := range r.Sweep.Points {
		a = append(a, perSeedValues(r.Cells[ti][pi], m)...)
		b = append(b, perSeedValues(r.Cells[bi][pi], m)...)
	}
	return stats.PairedT(a, b)
}

func perSeedValues(c Cell, m Metric) []float64 {
	out := make([]float64, 0, len(c.PerSeed))
	for _, s := range c.PerSeed {
		out = append(out, m.Get(s))
	}
	return out
}

// SignificanceTable reports paired-t p-values of the target against each
// baseline for the three headline metrics.
func (r *Result) SignificanceTable(target string, baselines []string) (string, error) {
	title := fmt.Sprintf("paired t-test p-values for %s (over %d point x seed pairs)\n",
		target, len(r.Sweep.Points)*len(r.Sweep.Seeds))
	return matrix(textSig, title, nil, "vs %s", target, baselines, r.PairedP)
}
