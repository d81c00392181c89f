package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocb"
)

// robustGrid builds a small 2×2 grid (buffer pages × MPL) used by the
// fault-tolerance tests: big enough to interrupt mid-grid, small enough to
// stay fast under -race.
func robustGrid(t *testing.T) Sweep {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	cfg.Users = 2
	buff, err := ParseAxis("buffpages=48,96")
	if err != nil {
		t.Fatal(err)
	}
	mpl, err := ParseAxis("mpl=1,2")
	if err != nil {
		t.Fatal(err)
	}
	return Sweep{
		Name:   "robust-grid",
		Config: cfg,
		Params: matrixParams(),
		Axes:   Grid(buff, mpl),
	}
}

// faultSweep builds a 3-point sweep whose middle point's Apply mutator is
// the injected fault.
func faultSweep(boom func(cfg *core.Config, p *ocb.Params)) Sweep {
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	cfg.Users = 2
	cfg.BufferPages = 96
	return Sweep{
		Name:   "fault-sweep",
		Config: cfg,
		Params: matrixParams(),
		Axes: []Axis{{Name: "variant", Points: []Point{
			{X: 0, Label: "a"},
			{X: 1, Label: "boom", SeedDelta: 1, Apply: boom},
			{X: 2, Label: "c", SeedDelta: 2},
		}}},
	}
}

// TestMidGridCancelAndResume is the fault-tolerance golden test: a
// journalled grid interrupted mid-campaign resumes from its journal and
// the merged result is bit-identical — every Welford accumulator and the
// rendered CSV — to an uninterrupted run, at every worker count.
func TestMidGridCancelAndResume(t *testing.T) {
	s := robustGrid(t)
	base := Options{Replications: 3, Seed: 2026}

	want, err := s.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := want.CSV()

	// Journalled run, cancelled after the second completed cell.
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.jsonl")
	j, err := s.StartJournal(path, base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := base
	o.Workers = 2
	o.Journal = j
	done := 0
	o.Progress = func(string) {
		done++
		if done == 2 {
			cancel()
		}
	}
	partial, err := s.RunContext(ctx, o)
	if cerr := j.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if partial == nil || partial.Completed() != 2 || partial.Pending() != 2 {
		t.Fatalf("partial result: completed %d pending %d, want 2/2",
			partial.Completed(), partial.Pending())
	}
	if !partial.Partial() {
		t.Fatal("interrupted result not reported as partial")
	}
	// The completed prefix matches the uninterrupted run bit for bit, and
	// the pending cells still render (annotated) instead of panicking.
	for i := 0; i < 2; i++ {
		if !samePointResult(&partial.Points[i], &want.Points[i]) {
			t.Fatalf("partial cell %d diverged from uninterrupted run", i)
		}
	}
	if txt := partial.Text(); !strings.Contains(txt, "(pending)") {
		t.Fatalf("partial table lacks pending annotation:\n%s", txt)
	}
	if _, err := partial.Heatmap(IOs); err != nil {
		t.Fatalf("partial heatmap: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		rpath := filepath.Join(dir, fmt.Sprintf("resume-%d.jsonl", workers))
		if err := os.WriteFile(rpath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ro := base
		ro.Workers = workers
		j2, data, err := s.ResumeJournal(rpath, ro)
		if err != nil {
			t.Fatal(err)
		}
		if data.Len() != 2 {
			t.Fatalf("journal replays %d cells, want 2", data.Len())
		}
		ro.Journal, ro.Resume = j2, data
		got, err := s.RunContext(context.Background(), ro)
		if cerr := j2.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatalf("Workers=%d resume: %v", workers, err)
		}
		if got.Completed() != len(got.Points) {
			t.Fatalf("Workers=%d resume left %d cells incomplete", workers, len(got.Points)-got.Completed())
		}
		for i := range want.Points {
			if !samePointResult(&got.Points[i], &want.Points[i]) {
				t.Fatalf("Workers=%d resumed cell %d diverged from uninterrupted run:\n%+v\n%+v",
					workers, i, got.Points[i], want.Points[i])
			}
		}
		if csv := got.CSV(); csv != wantCSV {
			t.Fatalf("Workers=%d resumed CSV differs from uninterrupted run:\n%s\n%s", workers, csv, wantCSV)
		}
		// The resumed journal now holds the whole grid: a second resume is
		// a pure replay, again byte-identical.
		j3, full, err := s.ResumeJournal(rpath, base)
		if err != nil {
			t.Fatal(err)
		}
		if full.Len() != len(want.Points) {
			t.Fatalf("resumed journal replays %d cells, want %d", full.Len(), len(want.Points))
		}
		ro2 := base
		ro2.Resume = full
		replay, err := s.RunContext(context.Background(), ro2)
		if cerr := j3.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if csv := replay.CSV(); csv != wantCSV {
			t.Fatalf("pure replay CSV differs from uninterrupted run:\n%s\n%s", csv, wantCSV)
		}
	}
}

// panicsWhenRun returns a mutator that panics from its second call on.
// Validate applies every point's mutator once per cell before any cell
// runs, and refuses the sweep if one panics there, so a fault reaches the
// failure policy only if it first fires when its cell runs, like a panic
// deep inside a replication.
func panicsWhenRun() func(cfg *core.Config, p *ocb.Params) {
	calls := 0
	return func(cfg *core.Config, p *ocb.Params) {
		calls++
		if calls > 1 {
			panic("injected fault")
		}
	}
}

// TestFailFastReturnsCellError pins the default policy: the first failed
// cell is recorded like any failed cell, then stops the sweep with a typed
// *CellError carrying the cell's position, seed, and the recovered panic
// stack, alongside the partial result.
func TestFailFastReturnsCellError(t *testing.T) {
	s := faultSweep(panicsWhenRun())
	res, err := s.Run(Options{Replications: 2, Seed: 5})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T %v, want *CellError", err, err)
	}
	if ce.Index != 1 || ce.Cell != "variant=boom" {
		t.Fatalf("CellError = %+v", ce)
	}
	if ce.Seed != 5+1 {
		t.Fatalf("CellError seed %d, want 6", ce.Seed)
	}
	if len(ce.Stack) == 0 {
		t.Fatal("CellError lacks the panic stack")
	}
	if !strings.Contains(ce.Error(), "injected fault") {
		t.Fatalf("CellError message %q lacks the panic value", ce.Error())
	}
	if res == nil || res.Completed() != 1 || res.Failed() != 1 || res.Pending() != 1 {
		t.Fatalf("partial result completed/failed/pending = %d/%d/%d, want 1/1/1",
			res.Completed(), res.Failed(), res.Pending())
	}
	if len(res.Failures) != 1 || res.Failures[0] != ce {
		t.Fatalf("Failures = %+v, want the returned CellError", res.Failures)
	}
	if res.Points[1].Status != CellFailed || res.Points[1].Err != ce {
		t.Fatalf("failed cell not recorded: %+v", res.Points[1])
	}
}

// TestSkipPolicyIsolatesFailure pins SkipFailed: a panicking cell is
// recorded and every other cell still completes — bit-identical to a
// sweep that never contained the poisoned point, proving the failure
// could not leak through the shared replication-context pool.
func TestSkipPolicyIsolatesFailure(t *testing.T) {
	s := faultSweep(panicsWhenRun())
	res, err := s.Run(Options{Replications: 2, Seed: 5, Policy: SkipFailed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed() != 2 || res.Failed() != 1 || res.Pending() != 0 {
		t.Fatalf("completed/failed/pending = %d/%d/%d, want 2/1/0",
			res.Completed(), res.Failed(), res.Pending())
	}
	if len(res.Failures) != 1 || res.Failures[0].Index != 1 {
		t.Fatalf("Failures = %+v", res.Failures)
	}
	if res.Points[1].Status != CellFailed || res.Points[1].Err == nil {
		t.Fatalf("failed cell not annotated: %+v", res.Points[1])
	}
	if txt := res.Text(); !strings.Contains(txt, "(failed)") {
		t.Fatalf("table lacks failed annotation:\n%s", txt)
	}

	clean := faultSweep(nil)
	clean.Axes[0].Points = []Point{clean.Axes[0].Points[0], clean.Axes[0].Points[2]}
	cleanRes, err := clean.Run(Options{Replications: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !samePointResult(&res.Points[0], &cleanRes.Points[0]) ||
		!samePointResult(&res.Points[2], &cleanRes.Points[1]) {
		t.Fatal("surviving cells diverged from a sweep without the poisoned point")
	}
}

// TestCellTimeoutFailsCell: an absurdly small per-cell deadline fails
// every cell with context.DeadlineExceeded (cooperatively, at replication
// boundaries) without aborting the campaign under SkipFailed — and
// without the deadline leaking into the campaign context.
func TestCellTimeoutFailsCell(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := matrixSweep(core.Centralized)
		res, err := s.Run(Options{
			Replications: 2, Seed: 9, Workers: workers,
			Policy: SkipFailed, CellTimeout: time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() != len(res.Points) {
			t.Fatalf("Workers=%d: %d/%d cells failed, want all", workers, res.Failed(), len(res.Points))
		}
		for _, ce := range res.Failures {
			if !errors.Is(ce, context.DeadlineExceeded) {
				t.Fatalf("Workers=%d: cell error %v, want DeadlineExceeded", workers, ce)
			}
		}
	}
}

// TestImpossibleCellRefusedBeforeRun: a cell that cannot run — an invalid
// Config or Params, clustering on a streaming base, or a mutator that
// panics — refuses the whole sweep under either policy before any cell
// runs: the error names the cell, no result comes back, and Progress never
// fires.
func TestImpossibleCellRefusedBeforeRun(t *testing.T) {
	cases := []struct {
		name string
		boom func(cfg *core.Config, p *ocb.Params)
		want string
	}{
		{"config", func(cfg *core.Config, p *ocb.Params) { cfg.MPL = 0 }, "core: MPL = 0"},
		{"params", func(cfg *core.Config, p *ocb.Params) { p.NO = 0 }, "ocb: NO = 0"},
		{"stream-clustering", func(cfg *core.Config, p *ocb.Params) {
			p.Layout = ocb.LayoutStream
			cfg.Clustering = core.DSTC
		}, "requires an eager object base"},
		{"panic", func(cfg *core.Config, p *ocb.Params) { panic("injected fault") }, "injected fault"},
	}
	for _, tc := range cases {
		for _, policy := range []FailurePolicy{FailFast, SkipFailed} {
			s := faultSweep(tc.boom)
			res, err := s.Run(Options{Replications: 2, Seed: 5, Policy: policy,
				Progress: func(line string) { t.Errorf("%s/%v: a cell ran: %s", tc.name, policy, line) }})
			if err == nil || !strings.Contains(err.Error(), "cell variant=boom") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s/%v: error %v, want one naming cell variant=boom and %q", tc.name, policy, err, tc.want)
			}
			if res != nil {
				t.Errorf("%s/%v: refused sweep returned a result", tc.name, policy)
			}
		}
	}
}

// TestPreCancelledSweep: a context cancelled before the sweep starts
// yields an all-pending partial result and the context error.
func TestPreCancelledSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := robustGrid(t)
	res, err := s.RunContext(ctx, Options{Replications: 2, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Pending() != len(res.Points) {
		t.Fatal("pre-cancelled sweep should report every cell pending")
	}
}
