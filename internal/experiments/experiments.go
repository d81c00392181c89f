// Package experiments defines one runnable reproduction per table and
// figure of the paper's evaluation section (§4). cmd/experiments, the
// benchmark harness and EXPERIMENTS.md all consume these definitions, so
// the same code regenerates every published result.
//
// Since the declarative-sweep refactor the reproductions are *data*: each
// figure/table is a sweep.Sweep spec (see specs.go and Spec), executed by
// the generic engine in internal/sweep. The adapters in this file map the
// generic multi-metric results back onto the legacy Figure/TableResult
// shapes, hex-identically to the pre-refactor hardcoded loops.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ocb"
	"repro/internal/paper"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// DefaultReplications is the replication count used when
// Options.Replications is unset, shared with cmd/experiments' and
// cmd/voodb's -reps flag defaults. The paper's own §4.2.2 protocol used
// sweep.PaperReplications (100); the smaller default keeps interactive
// runs fast — pass -reps 100 (or set Replications) for paper-grade
// intervals.
const DefaultReplications = sweep.DefaultReplications

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
	Warnings   []string
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

// Options control a reproduction run.
type Options struct {
	// Replications per point (default DefaultReplications; the paper used
	// sweep.PaperReplications).
	Replications int
	// Seed anchors all random streams.
	Seed uint64
	// Workers bounds how many replications run concurrently per point:
	// 0 uses all available cores, 1 forces the sequential engine. Results
	// are bit-identical for every worker count.
	Workers int
	// ShareBases shares each replication's object base across the points
	// of sweeps whose swept parameter does not affect generation (the
	// memory sweeps, Figures 8 and 11): replication r's base is generated
	// once from the sweep-level seed and reused at every point, instead of
	// being regenerated per point from that point's own seed. This is the
	// classical common-random-numbers variance reduction across the sweep
	// axis; it changes those figures' sampled values (each point sees the
	// same bases rather than independently drawn ones), so it is off by
	// default. Results remain fully deterministic, identical for every
	// worker count, and identical whether or not the cache materializes
	// (pinned by sweep's TestBaseCacheTransparent).
	ShareBases bool
	// DBLayout, when not ocb.LayoutEager, forces every point's object
	// bases onto the given generation layout (see ocb.Params.Layout).
	// LayoutStream keeps resident object-base memory O(hot-set + classes),
	// enabling million-object reproductions; it is bit-identical to
	// LayoutEagerV2 but not to the legacy eager derivation.
	DBLayout ocb.Layout
	// Progress, when non-nil, receives one line per completed point.
	Progress func(string)
	// Policy, Retries, RetryBackoff and CellTimeout configure the sweep
	// engine's fault tolerance (see sweep.Options): what happens when a
	// point fails, how often to retry it, and how long one point may run.
	Policy       sweep.FailurePolicy
	Retries      int
	RetryBackoff time.Duration
	CellTimeout  time.Duration
}

func (o Options) reps() int {
	if o.Replications < 1 {
		return DefaultReplications
	}
	return o.Replications
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// sweepOptions maps the reproduction options onto the generic engine's.
func (o Options) sweepOptions() sweep.Options {
	return sweep.Options{
		Replications: o.Replications,
		Seed:         o.Seed,
		Workers:      o.Workers,
		ShareBases:   o.ShareBases,
		DBLayout:     o.DBLayout,
		Progress:     o.Progress,
		Policy:       o.Policy,
		Retries:      o.Retries,
		RetryBackoff: o.RetryBackoff,
		CellTimeout:  o.CellTimeout,
	}
}

// table5Params returns the §4.3 workload: OCB defaults with the Table 5
// transaction mix and the given schema/instance sizing.
func table5Params(nc, no int) ocb.Params {
	p := ocb.DefaultParams()
	p.NC = nc
	p.NO = no
	return p
}

// runFigure executes a figure's declarative spec and adapts the generic
// multi-metric result onto the legacy Figure shape: the I/O interval and
// the hit percentage, next to the paper's digitized curves. An
// interrupted run returns the partially adapted figure alongside ctx's
// error (unreached points carry zero intervals).
func runFigure(ctx context.Context, id string, ref paper.Series, o Options) (*Figure, error) {
	spec, err := Spec(id)
	if err != nil {
		return nil, err
	}
	res, err := spec.RunContext(ctx, o.sweepOptions())
	if res == nil {
		return nil, err
	}
	f := &Figure{ID: res.Name, Title: res.Title, XLabel: res.XLabel, Paper: ref}
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
	return f, err
}

// Fig6 reproduces Figure 6: O₂, I/Os vs database size, 20 classes.
func Fig6(o Options) (*Figure, error) { return runFigure(context.Background(), "fig6", paper.Fig6, o) }

// Fig7 reproduces Figure 7: O₂, I/Os vs database size, 50 classes.
func Fig7(o Options) (*Figure, error) { return runFigure(context.Background(), "fig7", paper.Fig7, o) }

// Fig8 reproduces Figure 8: O₂, I/Os vs server cache size.
func Fig8(o Options) (*Figure, error) { return runFigure(context.Background(), "fig8", paper.Fig8, o) }

// Fig9 reproduces Figure 9: Texas, I/Os vs database size, 20 classes.
func Fig9(o Options) (*Figure, error) { return runFigure(context.Background(), "fig9", paper.Fig9, o) }

// Fig10 reproduces Figure 10: Texas, I/Os vs database size, 50 classes.
func Fig10(o Options) (*Figure, error) {
	return runFigure(context.Background(), "fig10", paper.Fig10, o)
}

// Fig11 reproduces Figure 11: Texas, I/Os vs available memory.
func Fig11(o Options) (*Figure, error) {
	return runFigure(context.Background(), "fig11", paper.Fig11, o)
}

// tableRowSpec pairs one published table row with the sweep metric that
// reproduces it.
type tableRowSpec struct {
	name   string
	metric sweep.Metric
	paper  paper.DSTCRow
}

// runTable executes a table's declarative spec and adapts the per-variant
// metric vectors onto the legacy TableResult rows. Unlike figures, a
// table needs every variant cell, so any interruption returns the error
// alone.
func runTable(ctx context.Context, id, altName string, rows []tableRowSpec, o Options) (*TableResult, error) {
	spec, err := Spec(id)
	if err != nil {
		return nil, err
	}
	res, err := spec.RunContext(ctx, o.sweepOptions())
	if err != nil {
		return nil, err
	}
	t := &TableResult{ID: res.Name, Title: res.Title, AltName: altName}
	for _, row := range rows {
		ours, _ := res.Points[0].Get(row.metric)
		r := TableRow{
			Name:       row.name,
			PaperBench: row.paper.Benchmark,
			PaperSim:   row.paper.Simulated,
			Ours:       ours,
		}
		if altName != "" {
			alt, _ := res.Points[1].Get(row.metric)
			r.OursAlt, r.HasAlt = alt, true
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

// Table6 reproduces Table 6: DSTC on the mid-size base, with the paper's
// benchmark column matched by our physical-OID mode and its simulation
// column by our logical-OID mode.
func Table6(o Options) (*TableResult, error) { return TableContext(context.Background(), "table6", o) }

func table6(ctx context.Context, o Options) (*TableResult, error) {
	return runTable(ctx, "table6", "ours (logical OIDs)", []tableRowSpec{
		{"Pre-clustering usage", sweep.PreIOs, paper.Table6[0]},
		{"Clustering overhead", sweep.OverheadIOs, paper.Table6[1]},
		{"Post-clustering usage", sweep.PostIOs, paper.Table6[2]},
		{"Gain", sweep.Gain, paper.Table6[3]},
	}, o)
}

// Table7 reproduces Table 7: DSTC cluster statistics.
func Table7(o Options) (*TableResult, error) { return TableContext(context.Background(), "table7", o) }

func table7(ctx context.Context, o Options) (*TableResult, error) {
	return runTable(ctx, "table7", "", []tableRowSpec{
		{"Mean number of clusters", sweep.Clusters, paper.Table7[0]},
		{"Mean number of obj./cluster", sweep.ObjPerCluster, paper.Table7[1]},
	}, o)
}

// Table8 reproduces Table 8: DSTC on the "large" base (8 MB of memory).
func Table8(o Options) (*TableResult, error) { return TableContext(context.Background(), "table8", o) }

func table8(ctx context.Context, o Options) (*TableResult, error) {
	return runTable(ctx, "table8", "", []tableRowSpec{
		{"Pre-clustering usage", sweep.PreIOs, paper.Table8[0]},
		{"Post-clustering usage", sweep.PostIOs, paper.Table8[1]},
		{"Gain", sweep.Gain, paper.Table8[2]},
	}, o)
}

// Names lists every experiment id in paper order.
func Names() []string {
	return []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table6", "table7", "table8"}
}

// RunFigure dispatches a figure by id (fig6…fig11).
func RunFigure(id string, o Options) (*Figure, error) {
	return FigureContext(context.Background(), id, o)
}

// FigureContext is RunFigure with cooperative cancellation: on
// interruption the partially adapted figure is returned alongside ctx's
// error, so harnesses can render what completed.
func FigureContext(ctx context.Context, id string, o Options) (*Figure, error) {
	switch id {
	case "fig6":
		return runFigure(ctx, id, paper.Fig6, o)
	case "fig7":
		return runFigure(ctx, id, paper.Fig7, o)
	case "fig8":
		return runFigure(ctx, id, paper.Fig8, o)
	case "fig9":
		return runFigure(ctx, id, paper.Fig9, o)
	case "fig10":
		return runFigure(ctx, id, paper.Fig10, o)
	case "fig11":
		return runFigure(ctx, id, paper.Fig11, o)
	default:
		return nil, fmt.Errorf("experiments: unknown figure %q", id)
	}
}

// RunTable dispatches a table by id (table6…table8).
func RunTable(id string, o Options) (*TableResult, error) {
	return TableContext(context.Background(), id, o)
}

// TableContext is RunTable with cooperative cancellation.
func TableContext(ctx context.Context, id string, o Options) (*TableResult, error) {
	switch id {
	case "table6":
		return table6(ctx, o)
	case "table7":
		return table7(ctx, o)
	case "table8":
		return table8(ctx, o)
	default:
		return nil, fmt.Errorf("experiments: unknown table %q", id)
	}
}
