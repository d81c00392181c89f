// Package experiments defines one runnable reproduction per table and
// figure of the paper's evaluation section (§4). cmd/experiments, the
// benchmark harness and EXPERIMENTS.md all consume these definitions, so
// the same code regenerates every published result.
//
// The reproductions are *data*: one registry (specs.go) holds each
// figure's and table's sweep.Sweep spec, executed by the generic engine in
// internal/sweep under sweep.Options, and the paper's published values.
// RunFigure and RunTable map the generic multi-metric results back onto
// the Figure/TableResult shapes, hex-identically to the pre-refactor
// hardcoded loops.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/paper"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Point is one x position of a reproduced figure.
type Point struct {
	X      int
	IOs    stats.Interval
	HitPct float64
}

// Figure is a reproduced figure: our simulated curve next to the paper's
// published (digitized) curves.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Points []Point
	Paper  paper.Series
	// CalendarPeak is the event-calendar depth high-water mark across every
	// point and replication of the figure — the scheduling load the kernel's
	// calendar actually carried (see sim.Simulation.PeakPending).
	CalendarPeak int
	// BypassRate is the mean fraction of executed events that dispatched
	// through the kernel's head-slot register rather than the calendar
	// heap, averaged over the figure's points (see
	// sim.Simulation.BypassRate). Like CalendarPeak it describes the
	// execution schedule, never the simulated results.
	BypassRate float64
}

// SimValues returns our simulated means in x order.
func (f *Figure) SimValues() []float64 {
	out := make([]float64, len(f.Points))
	for i, p := range f.Points {
		out[i] = p.IOs.Mean
	}
	return out
}

// TableRow is one row of a reproduced table.
type TableRow struct {
	Name       string
	PaperBench float64
	PaperSim   float64
	Ours       stats.Interval
	OursAlt    stats.Interval // second mode where applicable (e.g. logical OIDs)
	HasAlt     bool
}

// TableResult is a reproduced table.
type TableResult struct {
	ID      string
	Title   string
	AltName string // meaning of OursAlt (empty if unused)
	Rows    []TableRow
}

// RunFigure runs a figure spec (see Spec) and adapts the generic
// multi-metric result onto the Figure shape: the I/O interval and the hit
// percentage, next to the paper's digitized curves, found by s.Name. It
// refuses a spec that names no figure. An interrupted run, or one with a
// failed point under either failure policy, returns the partially adapted
// figure alongside ctx's error or the first failed cell's error (missing
// points carry zero intervals), so harnesses can render what completed.
func RunFigure(ctx context.Context, s sweep.Sweep, o sweep.Options) (*Figure, error) {
	r := find(s.Name)
	if r == nil || r.isTable() {
		return nil, fmt.Errorf("experiments: %q is not a figure", s.Name)
	}
	res, err := s.RunContext(ctx, o)
	if res == nil {
		return nil, err
	}
	f := &Figure{ID: res.Name, Title: res.Title, XLabel: res.XLabel, Paper: r.paper}
	f.Points = make([]Point, len(res.Points))
	reached := 0
	for i := range res.Points {
		pr := &res.Points[i]
		ios, _ := pr.Get(sweep.IOs)
		hit, _ := pr.Get(sweep.HitPct)
		f.Points[i] = Point{X: int(pr.X), IOs: ios, HitPct: hit.Mean}
		if pr.Result != nil && pr.Result.CalendarPeak > f.CalendarPeak {
			f.CalendarPeak = pr.Result.CalendarPeak
		}
		if pr.Result != nil {
			f.BypassRate += pr.Result.BypassRate.Mean()
			reached++
		}
	}
	if reached > 0 {
		f.BypassRate /= float64(reached)
	}
	if err == nil && len(res.Failures) > 0 {
		err = res.Failures[0]
	}
	return f, err
}

// RunTable runs a table spec (see Spec) and adapts its per-variant metric
// vectors onto the TableResult rows, next to the published values found by
// s.Name. It refuses a spec that names no table. Unlike figures, a table
// needs every variant cell, so an interruption returns the error alone,
// and so does a failed cell under either failure policy.
func RunTable(ctx context.Context, s sweep.Sweep, o sweep.Options) (*TableResult, error) {
	r := find(s.Name)
	if r == nil || !r.isTable() {
		return nil, fmt.Errorf("experiments: %q is not a table", s.Name)
	}
	res, err := s.RunContext(ctx, o)
	if err == nil && len(res.Failures) > 0 {
		err = res.Failures[0]
	}
	if err != nil {
		return nil, err
	}
	t := &TableResult{ID: res.Name, Title: res.Title, AltName: r.alt}
	for _, row := range r.rows {
		ours, _ := res.Points[0].Get(row.metric)
		tr := TableRow{
			Name:       row.name,
			PaperBench: row.paper.Benchmark,
			PaperSim:   row.paper.Simulated,
			Ours:       ours,
		}
		if r.alt != "" {
			alt, _ := res.Points[1].Get(row.metric)
			tr.OursAlt, tr.HasAlt = alt, true
		}
		t.Rows = append(t.Rows, tr)
	}
	return t, nil
}
