package sweep

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/report"
)

// mean returns the point's idx-th metric mean, or NaN for a cell without
// values (pending or failed) — numeric renderers show such cells as gaps.
func (pr *PointResult) mean(idx int) float64 {
	if idx < len(pr.Values) {
		return pr.Values[idx].Interval.Mean
	}
	return math.NaN()
}

// statusCells fills one row's metric columns for a cell that never
// completed: the status name in the mean column, empty half-width.
func (pr *PointResult) statusCells(cells []interface{}, metrics int) []interface{} {
	for m := 0; m < metrics; m++ {
		cells = append(cells, "("+pr.Status.String()+")", "")
	}
	return cells
}

// Table renders the sweep as an aligned multi-metric table: one row per
// cell, one leading column per axis, then a mean and half-width column per
// metric. (1-D sweeps keep their classic single key column.)
func (r *Result) Table() *report.Table {
	headers := append([]string(nil), r.AxisNames...)
	for _, m := range r.Metrics {
		headers = append(headers, m.Label(), "±")
	}
	t := report.NewTable(r.title(), headers...)
	for i := range r.Points {
		pr := &r.Points[i]
		cells := make([]interface{}, 0, len(headers))
		for _, l := range pr.Labels {
			cells = append(cells, l)
		}
		if len(pr.Values) == 0 {
			cells = pr.statusCells(cells, len(r.Metrics))
		}
		for _, v := range pr.Values {
			cells = append(cells, v.Interval.Mean, v.Interval.HalfWidth)
		}
		t.Addf(cells...)
	}
	return t
}

// Text renders the aligned table to a string.
func (r *Result) Text() string { return r.Table().String() }

// CSV renders the sweep as comma-separated values (the flat cell table,
// whatever the dimensionality — one axis column per dimension).
func (r *Result) CSV() string { return r.Table().CSV() }

// facetCount returns the number of trailing-axis combinations of an N-D
// result — the facets of FacetTables and the series of gridChart.
func (r *Result) facetCount() int {
	facets := 1
	for _, n := range r.Shape[1:] {
		facets *= n
	}
	return facets
}

// facetCoords fills coords[1:] with facet f's trailing-axis indices,
// decomposed row-major (last axis fastest) to match the cell order.
func (r *Result) facetCoords(f int, coords []int) {
	decompose(f, r.Shape[1:], coords[1:])
}

// title returns the display title (Name when no Title is set), shared by
// every renderer so tables, charts and heatmaps of one result agree.
func (r *Result) title() string {
	if r.Title != "" {
		return r.Title
	}
	return r.Name
}

// FacetTables renders an N-D result as one table per combination of the
// trailing axes (the facets), each faceted table listing the first axis's
// points — the classic small-multiples view of a grid study. A 1-D result
// yields its single Table.
func (r *Result) FacetTables() []*report.Table {
	if r.Dims() <= 1 {
		return []*report.Table{r.Table()}
	}
	headers := []string{r.AxisNames[0]}
	for _, m := range r.Metrics {
		headers = append(headers, m.Label(), "±")
	}
	facets := r.facetCount()
	tables := make([]*report.Table, 0, facets)
	coords := make([]int, r.Dims())
	for f := 0; f < facets; f++ {
		r.facetCoords(f, coords)
		var desc []string
		first := r.At(append([]int{0}, coords[1:]...)...)
		for k := 1; k < r.Dims(); k++ {
			desc = append(desc, fmt.Sprintf("%s=%s", r.AxisNames[k], first.Labels[k]))
		}
		t := report.NewTable(fmt.Sprintf("%s — %s", r.title(), strings.Join(desc, ", ")), headers...)
		for i := 0; i < r.Shape[0]; i++ {
			coords[0] = i
			pr := r.At(coords...)
			cells := []interface{}{pr.Labels[0]}
			if len(pr.Values) == 0 {
				cells = pr.statusCells(cells, len(r.Metrics))
			}
			for _, v := range pr.Values {
				cells = append(cells, v.Interval.Mean, v.Interval.HalfWidth)
			}
			t.Addf(cells...)
		}
		tables = append(tables, t)
	}
	return tables
}

// grid extracts the metric's mean matrix of a 2-D result: rows follow the
// first axis, columns the second.
func (r *Result) grid(m Metric) (rowLabels, colLabels []string, vals [][]float64, err error) {
	if r.Dims() != 2 {
		return nil, nil, nil, fmt.Errorf("sweep %q: heatmap needs exactly 2 axes, result has %d", r.Name, r.Dims())
	}
	sel := -1
	for i, rm := range r.Metrics {
		if rm == m {
			sel = i
		}
	}
	if sel < 0 {
		return nil, nil, nil, fmt.Errorf("sweep %q: metric %q not collected", r.Name, m)
	}
	rows, cols := r.Shape[0], r.Shape[1]
	rowLabels = make([]string, rows)
	colLabels = make([]string, cols)
	vals = make([][]float64, rows)
	for i := 0; i < rows; i++ {
		vals[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			pr := r.At(i, j)
			if i == 0 {
				colLabels[j] = pr.Labels[1]
			}
			if j == 0 {
				rowLabels[i] = pr.Labels[0]
			}
			vals[i][j] = pr.mean(sel)
		}
	}
	return rowLabels, colLabels, vals, nil
}

// Heatmap renders a 2-D grid's metric as an ASCII heatmap: the numeric
// matrix plus a shade map from the grid minimum to its maximum. It errors
// unless the result has exactly two axes and collected m.
func (r *Result) Heatmap(m Metric) (string, error) {
	rowLabels, colLabels, vals, err := r.grid(m)
	if err != nil {
		return "", err
	}
	return report.Heatmap(fmt.Sprintf("%s — %s", r.title(), m.Label()),
		r.AxisNames[0], r.AxisNames[1], rowLabels, colLabels, vals), nil
}

// HeatmapCSV renders a 2-D grid's metric means as a matrix CSV: first axis
// down, second axis across.
func (r *Result) HeatmapCSV(m Metric) (string, error) {
	rowLabels, colLabels, vals, err := r.grid(m)
	if err != nil {
		return "", err
	}
	t := report.NewTable("", append([]string{r.AxisNames[0] + `\` + r.AxisNames[1]}, colLabels...)...)
	for i, label := range rowLabels {
		cells := make([]interface{}, 0, 1+len(colLabels))
		cells = append(cells, label)
		for _, v := range vals[i] {
			cells = append(cells, v)
		}
		t.Addf(cells...)
	}
	return t.CSV(), nil
}

// Chart renders one ASCII chart per metric (metrics have incompatible
// scales, so each gets its own plot), concatenated. 1-D sweeps draw one
// curve; grids draw the first axis on x with one series per combination of
// the trailing axes.
func (r *Result) Chart(height int) string {
	if r.Dims() > 1 {
		return r.gridChart(height)
	}
	labels := make([]string, len(r.Points))
	for i := range r.Points {
		labels[i] = r.Points[i].Label
	}
	var out string
	for mi, m := range r.Metrics {
		values := make([]float64, len(r.Points))
		for i := range r.Points {
			values[i] = r.Points[i].mean(mi)
		}
		out += report.ChartSeries(
			fmt.Sprintf("%s — %s", r.title(), m.Label()),
			labels,
			[]report.Series{{Name: m.Label(), Values: values}},
			height,
		)
	}
	return out
}

// gridChart draws an N-D result: x follows the first axis, one series per
// trailing-axes combination, one chart per metric.
func (r *Result) gridChart(height int) string {
	xLabels := make([]string, r.Shape[0])
	facets := r.facetCount()
	var out string
	coords := make([]int, r.Dims())
	for mi, m := range r.Metrics {
		series := make([]report.Series, 0, facets)
		for f := 0; f < facets; f++ {
			r.facetCoords(f, coords)
			values := make([]float64, r.Shape[0])
			var name []string
			for i := 0; i < r.Shape[0]; i++ {
				coords[0] = i
				pr := r.At(coords...)
				values[i] = pr.mean(mi)
				if mi == 0 && f == 0 {
					xLabels[i] = pr.Labels[0]
				}
				if i == 0 {
					name = name[:0]
					for k := 1; k < r.Dims(); k++ {
						name = append(name, pr.Labels[k])
					}
				}
			}
			series = append(series, report.Series{Name: strings.Join(name, "/"), Values: values})
		}
		out += report.ChartSeries(
			fmt.Sprintf("%s — %s", r.title(), m.Label()),
			xLabels,
			series,
			height,
		)
	}
	return out
}
