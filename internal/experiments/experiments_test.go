package experiments

import (
	"context"
	"errors"
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

// TestDispatchErrors: unknown ids and specs of the wrong kind are refused
// before anything runs.
func TestDispatchErrors(t *testing.T) {
	if _, err := Spec("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
	ctx := context.Background()
	fig, err := Spec("fig6")
	if err != nil {
		t.Fatal(err)
	}
	table, err := Spec("table6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFigure(ctx, table, sweep.Options{}); err == nil {
		t.Error("table spec accepted as figure")
	}
	if _, err := RunTable(ctx, fig, sweep.Options{}); err == nil {
		t.Error("figure spec accepted as table")
	}
	fig.Name = "fig99"
	if _, err := RunFigure(ctx, fig, sweep.Options{}); err == nil {
		t.Error("unregistered figure accepted")
	}
	table.Name = "table99"
	if _, err := RunTable(ctx, table, sweep.Options{}); err == nil {
		t.Error("unregistered table accepted")
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
	tbl, err := RunTable(context.Background(), s, sweep.Options{Replications: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "table7" || len(tbl.Rows) != 2 {
		t.Fatalf("table: %+v", tbl)
	}
	clusters := tbl.Rows[0].Ours.Mean
	objPer := tbl.Rows[1].Ours.Mean
	if clusters < 40 || clusters > 200 {
		t.Errorf("clusters = %v, want Table 7 ballpark (≈ 82)", clusters)
	}
	if objPer < 6 || objPer > 26 {
		t.Errorf("objects/cluster = %v, want ≈ 13", objPer)
	}
	if tbl.Rows[0].PaperBench != 82.23 {
		t.Error("paper reference lost")
	}
}

// TestFailedCellsFailTheRun: a failed cell fails RunFigure and RunTable
// even under SkipFailed. The figure comes back with the error, and the
// table returns the error alone instead of rows of zeros.
func TestFailedCellsFailTheRun(t *testing.T) {
	ctx := context.Background()
	o := sweep.Options{Replications: 1, Seed: 1, Policy: sweep.SkipFailed, CellTimeout: time.Nanosecond}
	var ce *sweep.CellError
	fig, err := Spec("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if f, err := RunFigure(ctx, fig, o); !errors.As(err, &ce) || f == nil {
		t.Errorf("RunFigure = %v, %v; want the partial figure and a *CellError", f, err)
	}
	table, err := Spec("table7")
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := RunTable(ctx, table, o); !errors.As(err, &ce) || tr != nil {
		t.Errorf("RunTable = %v, %v; want no table and a *CellError", tr, err)
	}
}
