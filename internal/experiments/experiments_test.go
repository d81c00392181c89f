package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/systems"
)

func TestNamesCoverEveryTableAndFigure(t *testing.T) {
	names := Names()
	want := []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table6", "table7", "table8"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names[%d] = %s, want %s", i, names[i], n)
		}
		s, err := Spec(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != n {
			t.Errorf("Spec(%q).Name = %q", n, s.Name)
		}
	}
}

// TestDispatchErrors: unknown ids are refused before anything runs, and
// Table refuses a result that names no reproduction or lacks its cells.
func TestDispatchErrors(t *testing.T) {
	if _, err := Spec("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
	if _, err := Table(&sweep.Result{Name: "fig99"}); err == nil {
		t.Error("result of no reproduction accepted")
	}
	if _, err := Table(&sweep.Result{Name: "table6", Points: make([]sweep.PointResult, 1)}); err == nil {
		t.Error("table6 result with one of its two cells accepted")
	}
	if c := Chart(&sweep.Result{Name: "table7"}, 12); c != "" {
		t.Errorf("table drawn as a chart:\n%s", c)
	}
}

// TestFig6PointParallelDeterminism runs the first Figure 6 point (O₂, 20
// classes, NO = 500) with the sequential and the parallel engine and
// demands bit-identical IOs samples — the regression gate for the parallel
// replication runner on a real figure configuration.
func TestFig6PointParallelDeterminism(t *testing.T) {
	run := func(workers int) *core.Result {
		e := core.Experiment{
			Config:       systems.O2(),
			Params:       table5Params(20, 500),
			Seed:         1999 + 500, // instanceSweep's o.Seed + NO
			Replications: 4,
			Workers:      workers,
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if seq.IOs != par.IOs {
		t.Fatalf("fig6 IOs sample diverged between Workers=1 and Workers=8:\n%+v\n%+v", seq.IOs, par.IOs)
	}
	if *seq != *par {
		t.Fatalf("fig6 result diverged between Workers=1 and Workers=8:\n%+v\n%+v", *seq, *par)
	}
}

// TestTable7EndToEnd runs the cheapest full experiment once; the heavier
// ones are exercised by cmd/experiments and the benchmarks.
func TestTable7EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment skipped in -short mode")
	}
	s, err := Spec("table7")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sweep.Options{Replications: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "table7" || len(res.Points) != 1 {
		t.Fatalf("result: %+v", res)
	}
	clusters, _ := res.Points[0].Get(sweep.Clusters)
	objPer, _ := res.Points[0].Get(sweep.ObjPerCluster)
	if clusters.Mean < 40 || clusters.Mean > 200 {
		t.Errorf("clusters = %v, want Table 7 ballpark (≈ 82)", clusters.Mean)
	}
	if objPer.Mean < 6 || objPer.Mean > 26 {
		t.Errorf("objects/cluster = %v, want ≈ 13", objPer.Mean)
	}
	tbl, err := Table(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[0][1] != "82.23" {
		t.Errorf("paper reference lost: %v", tbl.Rows)
	}
}

// TestFailedCellsRender: under SkipFailed a cell that times out renders as
// "(failed)" in a figure and in a table, never as "(pending)", and the
// result lists every failed cell.
func TestFailedCellsRender(t *testing.T) {
	o := sweep.Options{Replications: 1, Seed: 1, Policy: sweep.SkipFailed, CellTimeout: time.Nanosecond}
	for _, id := range []string{"fig6", "table7"} {
		s, err := Spec(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunContext(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Failed() != len(res.Points) || len(res.Failures) != len(res.Points) {
			t.Fatalf("%s: %d of %d cells failed, %d failures listed", id, res.Failed(), len(res.Points), len(res.Failures))
		}
		tbl, err := Table(res)
		if err != nil {
			t.Fatal(err)
		}
		out := tbl.String() + tbl.CSV()
		if !strings.Contains(out, "(failed)") || strings.Contains(out, "(pending)") {
			t.Errorf("%s renders failed cells wrongly:\n%s", id, out)
		}
	}
}

// TestRenderGolden pins Table and Chart against the output of the
// pre-refactor renderers: testdata holds what cmd/experiments printed for
// -run fig6,table6 -reps 2 with -csv and with -chart before reproductions
// rendered from sweep.Result.
func TestRenderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure and table skipped in -short mode")
	}
	o := sweep.Options{Replications: 2, Seed: 1999}
	var csv, chart strings.Builder
	for _, id := range []string{"fig6", "table6"} {
		s, err := Spec(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := Table(res)
		if err != nil {
			t.Fatal(err)
		}
		csv.WriteString(tbl.CSV())
		chart.WriteString(tbl.String() + "\n")
		if c := Chart(res, 12); c != "" {
			chart.WriteString(c + "\n")
		}
	}
	for file, got := range map[string]string{"fig6_table6.csv": csv.String(), "fig6_table6_chart.txt": chart.String()} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s diverged:\n got\n%s\n want\n%s", file, got, want)
		}
	}
}
