// Package report renders experiment results as aligned text tables, ASCII
// charts and CSV, for the harness binaries and EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Addf appends a row of formatted cells: each argument is rendered with %v
// for strings and %.2f for floats.
func (t *Table) Addf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = FormatFloat(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case uint64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(row...)
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with two.
func FormatFloat(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprintf("%v", v)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes around cells
// containing commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named curve of a multi-series chart.
type Series struct {
	Name   string
	Values []float64
}

// heatRamp orders the shading characters of a heatmap cell from coldest to
// hottest.
const heatRamp = " .:-=+*#%@"

// Heatmap renders a 2-D value grid as text: an aligned numeric matrix
// (rows × columns) followed by a compact shade map, one ramp character per
// cell, normalized from the grid's minimum (' ') to its maximum ('@').
// values is indexed [row][col]; rowAxis/colAxis name the two dimensions.
func Heatmap(title, rowAxis, colAxis string, rowLabels, colLabels []string, values [][]float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range values {
		for _, v := range row {
			if math.IsNaN(v) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if lo > hi { // empty or all-NaN grid
		lo, hi = 0, 0
	}

	// Numeric matrix: first column is the row label, headed by
	// "rowAxis \ colAxis".
	corner := rowAxis + ` \ ` + colAxis
	t := NewTable("", append([]string{corner}, colLabels...)...)
	for r, label := range rowLabels {
		cells := make([]string, 0, 1+len(colLabels))
		cells = append(cells, label)
		for c := range colLabels {
			v := math.NaN()
			if r < len(values) && c < len(values[r]) {
				v = values[r][c]
			}
			cells = append(cells, FormatFloat(v))
		}
		t.AddRow(cells...)
	}

	// Shade map: one ramp character per cell, row labels aligned.
	labw := len(corner)
	for _, l := range rowLabels {
		if len(l) > labw {
			labw = len(l)
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	b.WriteString(t.String())
	b.WriteByte('\n')
	for r, label := range rowLabels {
		fmt.Fprintf(&b, "%-*s  ", labw, label)
		for c := range colLabels {
			ch := heatRamp[0]
			if r < len(values) && c < len(values[r]) && !math.IsNaN(values[r][c]) {
				ch = heatShade(values[r][c], lo, hi)
			}
			b.WriteByte(ch)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-*s  scale %q  min=%s  max=%s\n",
		labw, "", heatRamp, FormatFloat(lo), FormatFloat(hi))
	return b.String()
}

// heatShade maps v in [lo, hi] onto the ramp.
func heatShade(v, lo, hi float64) byte {
	if hi <= lo {
		return heatRamp[len(heatRamp)/2]
	}
	i := int((v - lo) / (hi - lo) * float64(len(heatRamp)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(heatRamp) {
		i = len(heatRamp) - 1
	}
	return heatRamp[i]
}

// ChartSeries renders a crude ASCII line chart of the given curves over a
// shared labelled x-axis, with the legend in slice order — enough to
// eyeball the shape of a figure or a sweep in a terminal, where the x
// positions may be numbers or named variants. A NaN value leaves a gap.
func ChartSeries(title string, xLabels []string, series []Series, height int) string {
	if height < 4 {
		height = 4
	}
	maxV := 0.0
	for _, s := range series {
		for _, y := range s.Values {
			if y > maxV {
				maxV = y
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	colw := 6
	for _, l := range xLabels {
		if len(l)+1 > colw {
			colw = len(l) + 1
		}
	}
	marks := "*o+x#@"
	width := len(xLabels)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width*colw))
	}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i, y := range s.Values {
			if i >= width {
				break
			}
			if math.IsNaN(y) { // missing cell (failed/pending): leave a gap
				continue
			}
			row := height - 1 - int(y/maxV*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			col := i*colw + colw/2
			grid[row][col] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max=%s)\n", title, FormatFloat(maxV))
	for _, row := range grid {
		b.WriteString("| ")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("+-")
	b.WriteString(strings.Repeat("-", width*colw))
	b.WriteByte('\n')
	b.WriteString("  ")
	for _, l := range xLabels {
		fmt.Fprintf(&b, "%-*s", colw, l)
	}
	b.WriteByte('\n')
	for si, s := range series {
		fmt.Fprintf(&b, "  %c = %s\n", marks[si%len(marks)], s.Name)
	}
	return b.String()
}
