package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("a-much-longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	// All data lines equal width.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("misaligned:\n%s", out)
	}
	if !strings.Contains(out, "a-much-longer-name") {
		t.Error("row lost")
	}
}

func TestAddRowPads(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only-one")
	if len(tb.Rows[0]) != 3 {
		t.Fatalf("row not padded: %v", tb.Rows[0])
	}
}

func TestAddf(t *testing.T) {
	tb := NewTable("", "s", "f", "i", "u")
	tb.Addf("x", 3.14159, 42, uint64(7))
	row := tb.Rows[0]
	if row[0] != "x" || row[1] != "3.14" || row[2] != "42" || row[3] != "7" {
		t.Fatalf("row = %v", row)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		5:       "5",
		1890.7:  "1890.7",
		3.14159: "3.14",
		0.5:     "0.50",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("plain", `with,comma`)
	tb.AddRow(`with"quote`, "x")
	csv := tb.CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Errorf("comma cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"with""quote"`) {
		t.Errorf("quote cell not escaped: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("header wrong: %q", csv)
	}
}

func TestChart(t *testing.T) {
	out := ChartSeries("Fig", []string{"1", "2", "3"}, []Series{
		{Name: "bench", Values: []float64{1, 2, 3}},
		{Name: "sim", Values: []float64{1.2, 2.1, 2.9}},
	}, 8)
	if !strings.Contains(out, "Fig") || !strings.Contains(out, "* = bench") || !strings.Contains(out, "o = sim") {
		t.Fatalf("chart missing parts:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("no data points plotted")
	}
}

func TestChartDegenerate(t *testing.T) {
	out := ChartSeries("Zero", []string{"1"}, []Series{{Name: "z", Values: []float64{0}}}, 2)
	if out == "" {
		t.Fatal("empty chart")
	}
}

func TestHeatmap(t *testing.T) {
	out := Heatmap("Grid", "policy", "pages",
		[]string{"LRU", "FIFO"}, []string{"64", "128", "256"},
		[][]float64{{9, 5, 1}, {8, 4, 2}})
	for _, want := range []string{"Grid", `policy \ pages`, "LRU", "FIFO", "64", "256", "scale", "min=1", "max=9"} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap missing %q:\n%s", want, out)
		}
	}
	// The grid minimum shades coldest (' '), the maximum hottest ('@').
	lines := strings.Split(out, "\n")
	var shadeLRU string
	for _, l := range lines {
		if strings.HasPrefix(l, "LRU") && !strings.Contains(l, "9") {
			shadeLRU = l
		}
	}
	if !strings.Contains(shadeLRU, "@") || !strings.HasSuffix(shadeLRU, " ") {
		t.Errorf("LRU shade row wrong: %q", shadeLRU)
	}
}

func TestHeatmapDegenerate(t *testing.T) {
	// Uniform values must not divide by zero; a ragged/NaN grid renders
	// blanks instead of panicking.
	if out := Heatmap("", "r", "c", []string{"a"}, []string{"x", "y"}, [][]float64{{3, 3}}); out == "" {
		t.Fatal("empty uniform heatmap")
	}
	out := Heatmap("", "r", "c", []string{"a", "b"}, []string{"x", "y"}, [][]float64{{1}})
	if !strings.Contains(out, "NaN") {
		t.Errorf("missing cells not marked:\n%s", out)
	}
}
