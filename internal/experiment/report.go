package experiment

import (
	"fmt"
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

// Table renders the sweep as fixed-width rows: one row per point, one
// column group per metric per algorithm.
func (r *Result) Table(ms ...Metric) string {
	if len(ms) == 0 {
		ms = Metrics()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.Sweep.ID, r.Sweep.Title)
	// Header.
	fmt.Fprintf(&b, "%-10s", r.Sweep.XLabel)
	for _, m := range ms {
		for _, a := range r.Sweep.Algorithms {
			fmt.Fprintf(&b, " %16s", a.Name+"/"+m.Name)
		}
	}
	b.WriteByte('\n')
	for pi, pt := range r.Sweep.Points {
		fmt.Fprintf(&b, "%-10.3g", pt.X)
		for _, m := range ms {
			for ai := range r.Sweep.Algorithms {
				fmt.Fprintf(&b, " %16.4f", m.Get(r.Cells[ai][pi].Summary))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the sweep as a GitHub-flavored markdown table: one row
// per point, metric columns grouped per algorithm.
func (r *Result) Markdown(ms ...Metric) string {
	if len(ms) == 0 {
		ms = Metrics()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "#### %s — %s\n\n", r.Sweep.ID, r.Sweep.Title)
	b.WriteString("| " + r.Sweep.XLabel + " |")
	for _, m := range ms {
		for _, a := range r.Sweep.Algorithms {
			fmt.Fprintf(&b, " %s %s |", a.Name, m.Name)
		}
	}
	b.WriteString("\n|---|")
	for range ms {
		for range r.Sweep.Algorithms {
			b.WriteString("---|")
		}
	}
	b.WriteByte('\n')
	for pi, pt := range r.Sweep.Points {
		fmt.Fprintf(&b, "| %.3g |", pt.X)
		for _, m := range ms {
			for ai := range r.Sweep.Algorithms {
				fmt.Fprintf(&b, " %.4f |", m.Get(r.Cells[ai][pi].Summary))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ImprovementMarkdown renders a paper-style improvement table as markdown.
func (r *Result) ImprovementMarkdown(name, target string, baselines []string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s** — maximum %% improvement of %s:\n\n", name, target)
	b.WriteString("| Performance Metric |")
	for _, base := range baselines {
		fmt.Fprintf(&b, " %s (%%) |", base)
	}
	b.WriteString("\n|---|")
	for range baselines {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	rows := []struct {
		label string
		m     Metric
	}{
		{"Utilization", MetricUtil},
		{"Job waiting time", MetricWait},
		{"Slowdown", MetricSlow},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "| %s |", row.label)
		for _, base := range baselines {
			v, err := r.MaxImprovement(target, base, row.m)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %.2f |", v)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// TSV renders machine-readable results: one line per (point, algorithm).
func (r *Result) TSV() string {
	var b strings.Builder
	b.WriteString("sweep\tx\talgorithm\tutil\twait\trun\tslowdown\tbounded_slow\tp95wait\tded_ontime\tsteady_util\tsteady_wait\trealized_load\truns\n")
	for pi, pt := range r.Sweep.Points {
		for ai, a := range r.Sweep.Algorithms {
			c := r.Cells[ai][pi]
			s := c.Summary
			fmt.Fprintf(&b, "%s\t%g\t%s\t%.6f\t%.3f\t%.3f\t%.5f\t%.5f\t%.3f\t%.4f\t%.6f\t%.3f\t%.4f\t%d\n",
				r.Sweep.ID, pt.X, a.Name, s.Utilization, s.MeanWait, s.MeanRun, s.Slowdown,
				s.MeanBoundedSlow, s.P95Wait, s.DedicatedOnTime, s.SteadyUtilization, s.SteadyMeanWait,
				c.RealizedLoad, c.Runs)
		}
	}
	return b.String()
}

// HasFaults reports whether any point of the sweep injects failures —
// the signal for writing the fault-aware TSV layout instead of the
// standard one (which stays byte-stable for the committed figure series).
func (r *Result) HasFaults() bool {
	for _, pt := range r.Sweep.Points {
		if pt.Faults != nil {
			return true
		}
	}
	return false
}

// FaultTSV renders the machine-readable series for fault-injected sweeps:
// the headline metrics plus the robustness accounting — kills, retries,
// drops, destroyed work, out-of-service capacity — and the malleability
// counters (scheduler resizes, ceded proc-seconds, reconfiguration cost).
func (r *Result) FaultTSV() string {
	var b strings.Builder
	b.WriteString("sweep\tx\talgorithm\tutil\twait\trun\tslowdown\tkilled\tretried\tdropped\t" +
		"lost_work\tdown_procsec\tresizes\tshrunk_procsec\treconfig_sec\trealized_load\truns\n")
	for pi, pt := range r.Sweep.Points {
		for ai, a := range r.Sweep.Algorithms {
			c := r.Cells[ai][pi]
			s := c.Summary
			fmt.Fprintf(&b, "%s\t%g\t%s\t%.6f\t%.3f\t%.3f\t%.5f\t%d\t%d\t%d\t%.1f\t%.1f\t%d\t%.1f\t%.1f\t%.4f\t%d\n",
				r.Sweep.ID, pt.X, a.Name, s.Utilization, s.MeanWait, s.MeanRun, s.Slowdown,
				s.KilledJobs, s.RetriedJobs, s.DroppedJobs, s.LostWorkSeconds, s.DownProcSeconds,
				s.SchedulerResizes, s.ShrunkProcSeconds, s.ReconfigOverheadSeconds,
				c.RealizedLoad, c.Runs)
		}
	}
	return b.String()
}

// HasCheckpoints reports whether any point of the sweep checkpoints —
// the signal for writing the checkpoint-economics TSV layout. Committed
// fault-series files keep the FaultTSV layout byte-stable, so checkpoint
// sweeps get their own.
func (r *Result) HasCheckpoints() bool {
	for _, pt := range r.Sweep.Points {
		if pt.Faults != nil && pt.Faults.Checkpoint != fault.CheckpointNone {
			return true
		}
	}
	return false
}

// CheckpointTSV renders the machine-readable series for checkpointed
// sweeps: the fault layout plus the checkpoint-economics decomposition —
// checkpoints taken, the overhead charged for them, and the (now
// since-checkpoint) lost work they bound.
func (r *Result) CheckpointTSV() string {
	var b strings.Builder
	b.WriteString("sweep\tx\talgorithm\tutil\twait\trun\tslowdown\tkilled\tretried\tdropped\t" +
		"lost_work\tdown_procsec\tcheckpoints\tckpt_overhead\tresizes\tshrunk_procsec\treconfig_sec\trealized_load\truns\n")
	for pi, pt := range r.Sweep.Points {
		for ai, a := range r.Sweep.Algorithms {
			c := r.Cells[ai][pi]
			s := c.Summary
			fmt.Fprintf(&b, "%s\t%g\t%s\t%.6f\t%.3f\t%.3f\t%.5f\t%d\t%d\t%d\t%.1f\t%.1f\t%d\t%.1f\t%d\t%.1f\t%.1f\t%.4f\t%d\n",
				r.Sweep.ID, pt.X, a.Name, s.Utilization, s.MeanWait, s.MeanRun, s.Slowdown,
				s.KilledJobs, s.RetriedJobs, s.DroppedJobs, s.LostWorkSeconds, s.DownProcSeconds,
				s.CheckpointsTaken, s.CheckpointOverheadSeconds,
				s.SchedulerResizes, s.ShrunkProcSeconds, s.ReconfigOverheadSeconds,
				c.RealizedLoad, c.Runs)
		}
	}
	return b.String()
}

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

// ImprovementTable renders a paper-style improvement table (e.g. Table IV:
// maximum % improvement of Delayed-LOS over LOS and EASY).
func (r *Result) ImprovementTable(name, target string, baselines []string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: maximum %% improvement of %s (from %s)\n", name, target, r.Sweep.ID)
	fmt.Fprintf(&b, "%-22s", "Performance Metric")
	for _, base := range baselines {
		fmt.Fprintf(&b, " %14s", base+" (%)")
	}
	b.WriteByte('\n')
	rows := []struct {
		label string
		m     Metric
	}{
		{"Utilization", MetricUtil},
		{"Job waiting time", MetricWait},
		{"Slowdown", MetricSlow},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-22s", row.label)
		for _, base := range baselines {
			v, err := r.MaxImprovement(target, base, row.m)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %14.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Improvements computes every pairwise max improvement for a metric,
// useful in tests asserting orderings.
func (r *Result) Improvements(m Metric) map[string]float64 {
	out := make(map[string]float64)
	for _, t := range r.Sweep.Algorithms {
		for _, base := range r.Sweep.Algorithms {
			if t.Name == base.Name {
				continue
			}
			v, err := r.MaxImprovement(t.Name, base.Name, m)
			if err == nil {
				out[t.Name+">"+base.Name] = v
			}
		}
	}
	return out
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
	var b strings.Builder
	fmt.Fprintf(&b, "paired t-test p-values for %s (over %d point x seed pairs)\n",
		target, len(r.Sweep.Points)*len(r.Sweep.Seeds))
	fmt.Fprintf(&b, "%-26s", "Performance Metric")
	for _, base := range baselines {
		fmt.Fprintf(&b, " %14s", "vs "+base)
	}
	b.WriteByte('\n')
	for _, m := range Metrics() {
		fmt.Fprintf(&b, "%-26s", m.Label)
		for _, base := range baselines {
			p, err := r.PairedP(target, base, m)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %14.4f", p)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
