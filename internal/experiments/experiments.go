// Package experiments defines one runnable reproduction per table and
// figure of the paper's evaluation section (§4). cmd/experiments, the
// benchmark harness and EXPERIMENTS.md all consume these definitions, so
// the same code regenerates every published result.
//
// The reproductions are *data*: one registry (specs.go) holds each
// figure's and table's sweep.Sweep spec and the paper's published values.
// Spec returns a spec, which runs like any other sweep (Sweep.RunContext
// under sweep.Options), and Table and Chart render its sweep.Result beside
// the published values.
package experiments

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/report"
	"repro/internal/sweep"
)

// Table renders a reproduction's result beside the paper's published
// values, found by res.Name. A figure has one row per x position: the
// paper's benchmark and simulated values, then our mean I/O count, its 95%
// half-width and the hit percentage. A table has one row per published
// metric, with a second pair of columns for its alternate variant where
// it has one. A cell that did not complete shows its status, "(failed)"
// or "(pending)", in place of its values. Table refuses a result that
// names no reproduction or does not have the reproduction's cells.
func Table(res *sweep.Result) (*report.Table, error) {
	r := find(res.Name)
	if r == nil {
		return nil, fmt.Errorf("experiments: %q names no reproduction", res.Name)
	}
	if want := len(r.spec().Axes[0].Points); len(res.Points) != want {
		return nil, fmt.Errorf("experiments: %s result has %d cells, want %d", res.Name, len(res.Points), want)
	}
	if !r.isTable() {
		t := report.NewTable(
			fmt.Sprintf("%s — %s (paper curves digitized, approximate)", res.Name, res.Title),
			res.AxisNames[0], "paper bench", "paper sim", "ours", "±95%", "hit%")
		for i := range res.Points {
			pr := &res.Points[i]
			cells := interval([]interface{}{int(pr.X), r.paper.Benchmark[i], r.paper.Simulated[i]}, pr, sweep.IOs)
			if hit, ok := pr.Get(sweep.HitPct); ok {
				cells = append(cells, hit.Mean)
			}
			t.Addf(cells...)
		}
		return t, nil
	}
	headers := []string{"metric", "paper bench", "paper sim", "ours", "±95%"}
	if r.alt != "" {
		headers = append(headers, r.alt, "±95%")
	}
	t := report.NewTable(fmt.Sprintf("%s — %s", res.Name, res.Title), headers...)
	for _, row := range r.rows {
		cells := []interface{}{row.name, row.paper.Benchmark, row.paper.Simulated}
		for i := range res.Points {
			cells = interval(cells, &res.Points[i], row.metric)
		}
		t.Addf(cells...)
	}
	return t, nil
}

// interval appends the cell's mean and 95% half-width of m, or, for a
// cell that did not complete, its status and an empty half-width.
func interval(cells []interface{}, pr *sweep.PointResult, m sweep.Metric) []interface{} {
	if pr.Status != sweep.CellCompleted {
		return append(cells, "("+pr.Status.String()+")", "")
	}
	v, _ := pr.Get(m)
	return append(cells, v.Mean, v.HalfWidth)
}

// Chart draws a figure's result as an ASCII chart of our mean I/O counts
// ("ours") and the paper's benchmark curve ("paper") over the figure's x
// positions; a cell that did not complete leaves a gap. It returns "" for
// a table's result and for one that names no figure.
func Chart(res *sweep.Result, height int) string {
	r := find(res.Name)
	if r == nil || r.isTable() {
		return ""
	}
	labels := make([]string, len(r.paper.X))
	for i, x := range r.paper.X {
		labels[i] = strconv.Itoa(x)
	}
	ours := make([]float64, len(res.Points))
	for i := range res.Points {
		ours[i] = math.NaN()
		if ios, ok := res.Points[i].Get(sweep.IOs); ok {
			ours[i] = ios.Mean
		}
	}
	return report.ChartSeries(res.Name, labels,
		[]report.Series{{Name: "ours", Values: ours}, {Name: "paper", Values: r.paper.Benchmark}}, height)
}
