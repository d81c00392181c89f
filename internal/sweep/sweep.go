// Package sweep is the declarative scenario subsystem of the reproduction:
// a generic, multi-metric parameter-sweep engine over the VOODB evaluation
// model. The paper's whole point is genericity — one simulation model
// instantiable for any OODB architecture and any parameter study (§3,
// Table 3) — and this package is the experiment-layer counterpart: a Sweep
// is *data* (a base core.Config + ocb.Params, one or more Axes of
// per-point mutators, a metric selection), and one runner executes any
// such spec through the replicated-experiment engine, reusing pooled
// replication contexts across points and optionally sharing object bases
// across non-generative slices (the BaseCache fast path).
//
// Parameters are typed (Kind: numeric, integer, enum, bool), so the
// categorical Table 3 knobs — SYSCLASS, PGREP, INITPL, CLUSTP — are
// first-class sweepable dimensions, and a Sweep with several Axes runs the
// full cross-product grid (buffer size × replacement policy, MPL × system
// class, …) with 2-D results renderable as heatmaps.
//
// internal/experiments expresses every reproduced figure and table of the
// paper (Fig. 6–11, Tables 6–8) as a Sweep over this engine, and
// cmd/experiments' repeatable -sweep flag compiles user-supplied parameter
// axes (ParseAxis) into one; voodb re-exports the types for library
// studies.
//
// Results are deterministic: bit-identical for every Workers count and
// with or without context pooling, exactly like the underlying engine.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ocb"
	"repro/internal/rng"
	"repro/internal/stats"
)

// DefaultReplications is the number of replications per sweep point when
// Options.Replications is zero. The paper's own protocol used
// PaperReplications; the smaller default keeps interactive runs fast and
// is shared by every harness (experiments.Options, cmd/experiments' and
// cmd/voodb's -reps flags).
const DefaultReplications = 10

// PaperReplications is the replication count of the paper's §4.2.2 output
// analysis (100 independent replications per point).
const PaperReplications = 100

// Point is one position on a sweep's axis: an x value, an optional display
// label, a per-point seed offset, and a mutator that specializes the
// sweep's base configuration and workload parameters for this point.
type Point struct {
	// X is the numeric axis position (table key and chart x). Categorical
	// (enum/bool) axes use the point index.
	X float64
	// Label overrides the display label (defaults to a compact rendering
	// of X); table-style sweeps use it to name variants ("physical",
	// "logical"), enum axes the choice ("LRU").
	Label string
	// SeedDelta offsets the sweep seed for this point, decorrelating the
	// random streams of different points (the figure sweeps use the swept
	// value itself, generic axes the point index).
	SeedDelta uint64
	// Apply specializes the base Config/Params for this point. A nil
	// Apply runs the base spec unchanged.
	Apply func(cfg *core.Config, p *ocb.Params)
}

// label returns the point's display label.
func (pt Point) label() string {
	if pt.Label != "" {
		return pt.Label
	}
	return strconv.FormatFloat(pt.X, 'g', -1, 64)
}

// Axis is one independent variable of a sweep: a named series of points.
type Axis struct {
	// Name labels the axis ("instances", "MB", a parameter name).
	Name string
	// Generative declares that the axis mutates workload-generation
	// inputs (ocb.Params): a generative axis regenerates each point's
	// object bases and is ineligible for base sharing. Axes that only
	// touch the system configuration (buffer size, MPL, …) leave it
	// false, enabling the Options.ShareBases fast path.
	Generative bool
	// Points are the axis positions, in display order.
	Points []Point
}

// Grid assembles several axes into the Axes field of a multi-axis sweep —
// a readability helper for cross-product studies:
//
//	Sweep{..., Axes: sweep.Grid(policyAxis, bufferAxis)}
func Grid(axes ...Axis) []Axis { return axes }

// Sweep is a declarative parameter study: a base system configuration and
// workload, one or more axes of mutations, and a metric selection. The
// zero values of Protocol/Metrics select the standard replicated-batch
// protocol with every metric it collects.
type Sweep struct {
	// Name identifies the sweep (error messages, progress, chart titles).
	Name string
	// Title is the human-readable headline.
	Title string
	// Config is the base system configuration (Table 3); each point's
	// Apply may specialize it.
	Config core.Config
	// Params is the base OCB parameterization (Table 5); each point's
	// Apply may specialize it.
	Params ocb.Params
	// Axis is the swept variable of a 1-D study (the legacy spec form).
	// Multi-axis studies set Axes instead; setting both is an error.
	Axis Axis
	// Axes, when non-empty, declares a multi-axis study: the sweep runs
	// the full cross-product grid of all axes' points (row-major, last
	// axis fastest). A single-element Axes is equivalent to Axis.
	Axes []Axis
	// Metrics selects which outputs to collect (nil = every metric of the
	// protocol). Order is preserved in results and rendering.
	Metrics []Metric
	// Protocol selects the per-point experiment (standard or §4.4 DSTC).
	Protocol Protocol
	// Transactions and Depth parameterize the DSTC protocol's phases
	// (defaults: the paper's 1000 transactions of depth-3 traversals).
	// Ignored by the standard protocol.
	Transactions int
	Depth        int
	// RunDescending executes points last-to-first while still reporting
	// them in axis order. Sweeps whose object base grows along the axis
	// (the instance-count figures) run largest-first so the pooled
	// replication contexts reach their high-water size at the first point
	// and every later point resets within existing capacity. Results are
	// bit-identical either way.
	RunDescending bool
}

// Options control one execution of a sweep.
type Options struct {
	// Replications per point (default DefaultReplications; the paper used
	// PaperReplications).
	Replications int
	// Seed anchors all random streams; each point offsets it by its
	// SeedDelta (grid cells chain the deltas of later axes through
	// rng.SubSeed).
	Seed uint64
	// Workers bounds how many replications run concurrently per point:
	// 0 uses all available cores, 1 forces the sequential engine. Results
	// are bit-identical for every worker count.
	Workers int
	// Confidence is the Student-t level of every reported interval
	// (default 0.95).
	Confidence float64
	// ShareBases shares each replication's object base across the points
	// of the non-generative axes (the swept parameters never reach
	// ocb.Generate): replication r's base is generated once per
	// generative slice from the slice-level seed and reused at every
	// point of the slice instead of being redrawn per point from that
	// point's own seed. This is common-random-numbers variance reduction
	// across those axes; it changes the sampled values (each point sees
	// the same bases rather than independently drawn ones), so it is off
	// by default. Ignored when every axis is generative and under the
	// DSTC protocol. Results remain fully deterministic and identical for
	// every worker count (pinned by TestBaseCacheTransparent).
	ShareBases bool
	// Pool, when non-nil, shares replication contexts beyond this sweep
	// (several sweeps in one session); by default each run creates its
	// own pool spanning all points. Results are identical either way.
	Pool *core.ContextPool
	// DBLayout, when not LayoutEager, forces every cell's object bases onto
	// the given generation layout (overriding the cell's Params.Layout).
	// LayoutEagerV2 and LayoutStream produce bit-identical results to each
	// other (streaming only changes residency); both differ from the legacy
	// LayoutEager derivation, so the choice enters the journal fingerprint.
	DBLayout ocb.Layout
	// Progress, when non-nil, receives one line per completed point.
	Progress func(string)

	// --- fault tolerance (see also FailurePolicy) ---

	// Policy decides what happens when a cell fails — errors, panics, or
	// hits its CellTimeout. The default FailFast aborts the sweep (the
	// historical behavior); SkipFailed and RetryFailed record the failure
	// on the cell and keep the campaign going.
	Policy FailurePolicy
	// Retries is the per-cell retry budget under RetryFailed (default
	// DefaultRetries). Each retry waits exponential backoff and runs on
	// fresh pooled contexts — failed attempts always discard theirs.
	Retries int
	// RetryBackoff is the first retry's delay (default
	// DefaultRetryBackoff); attempt n waits 2ⁿ⁻¹ × RetryBackoff.
	RetryBackoff time.Duration
	// CellTimeout, when positive, bounds each cell attempt's wall-clock
	// time: the cell's replications are cancelled cooperatively (at
	// replication boundaries and the kernel's coarse stop check) and the
	// cell fails with context.DeadlineExceeded, subject to Policy.
	CellTimeout time.Duration
	// Journal, when non-nil, receives every completed cell as a JSONL
	// checkpoint record (see Sweep.StartJournal). Cells replayed from
	// Resume are already in the journal and are not rewritten.
	Journal *Journal
	// Resume, when non-nil, replays the journalled cells instead of
	// rerunning them; only the remainder executes. The journal must have
	// been written by the same spec and result-affecting options
	// (verified by fingerprint — see Sweep.ResumeJournal), and the merged
	// result is byte-identical to an uninterrupted run.
	Resume *JournalData
}

func (o Options) reps() int {
	if o.Replications < 1 {
		return DefaultReplications
	}
	return o.Replications
}

func (o Options) confidence() float64 {
	if o.Confidence == 0 {
		return 0.95
	}
	return o.Confidence
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// Value is one collected metric of one point.
type Value struct {
	Metric   Metric
	Interval stats.Interval
}

// PointResult is one completed sweep point: the collected metric vector
// plus the underlying replicated aggregate for advanced consumers.
type PointResult struct {
	// X is the first axis's position; Label its display label (1-D
	// studies) or the "/"-joined per-axis labels (grids).
	X     float64
	Label string
	// Coords is the cell position, one index per axis (len 1 for 1-D).
	Coords []int
	// Labels holds the per-axis display labels of the cell, in axis
	// order.
	Labels []string
	// Values holds one interval per selected metric, in metric order.
	// Empty for cells that never completed (pending or failed).
	Values []Value
	// Result is the standard-protocol aggregate (nil under DSTCProtocol).
	Result *core.Result
	// DSTC is the DSTC-protocol aggregate (nil under Standard).
	DSTC *core.DSTCResult
	// Status is the cell's lifecycle state: CellCompleted for cells with
	// valid values (including journal replays), CellFailed for cells a
	// skip/retry policy gave up on, CellPending for cells an interrupted
	// campaign never reached.
	Status CellStatus
	// Err carries the failure of a CellFailed cell.
	Err *CellError
}

// Get returns the interval collected for m, if m was selected.
func (pr *PointResult) Get(m Metric) (stats.Interval, bool) {
	for _, v := range pr.Values {
		if v.Metric == m {
			return v.Interval, true
		}
	}
	return stats.Interval{}, false
}

// Result is a completed sweep: every cell's metric vector. 1-D sweeps
// report points in axis order; grids in row-major order over Shape (last
// axis fastest).
type Result struct {
	Name  string
	Title string
	// XLabel is the first axis's name (1-D) or the "×"-joined axis names
	// (grids).
	XLabel string
	// AxisNames are the axes' names, in declaration order.
	AxisNames []string
	// Shape is the number of points per axis; len(Points) is its product.
	Shape   []int
	Metrics []Metric
	Points  []PointResult
	// Failures lists every cell a skip/retry policy recorded instead of
	// aborting on, in execution order. Empty for fully successful sweeps
	// (and always under FailFast, which returns the CellError instead).
	Failures []*CellError
}

// Dims returns the number of axes.
func (r *Result) Dims() int { return len(r.Shape) }

// Completed counts cells with valid values (run or replayed).
func (r *Result) Completed() int { return r.countStatus(CellCompleted) }

// Failed counts cells recorded as failed by a skip/retry policy.
func (r *Result) Failed() int { return r.countStatus(CellFailed) }

// Pending counts cells an interrupted campaign never reached.
func (r *Result) Pending() int { return r.countStatus(CellPending) }

func (r *Result) countStatus(st CellStatus) int {
	n := 0
	for i := range r.Points {
		if r.Points[i].Status == st {
			n++
		}
	}
	return n
}

// Partial reports whether any cell is missing values (failed or pending) —
// renderers annotate such results instead of presenting them as complete.
func (r *Result) Partial() bool { return r.Completed() < len(r.Points) }

// decompose writes flat cell index idx as row-major coordinates over shape
// (last axis fastest) — the single definition of the grid's cell order;
// Result.At computes the inverse.
func decompose(idx int, shape, coords []int) {
	for k := len(shape) - 1; k >= 0; k-- {
		coords[k] = idx % shape[k]
		idx /= shape[k]
	}
}

// At returns the cell at the given per-axis indices.
func (r *Result) At(coords ...int) *PointResult {
	if len(coords) != len(r.Shape) {
		panic(fmt.Sprintf("sweep: At(%v) on a %d-axis result", coords, len(r.Shape)))
	}
	idx := 0
	for k, c := range coords {
		if c < 0 || c >= r.Shape[k] {
			panic(fmt.Sprintf("sweep: At(%v) out of range for shape %v", coords, r.Shape))
		}
		idx = idx*r.Shape[k] + c
	}
	return &r.Points[idx]
}

// Validate checks the spec without running it.
func (s *Sweep) Validate() error {
	if len(s.Axes) > 0 && len(s.Axis.Points) > 0 {
		return fmt.Errorf("sweep %q: both Axis and Axes set (use one)", s.Name)
	}
	axes := s.axes()
	if len(axes) == 0 {
		return fmt.Errorf("sweep %q: no axes", s.Name)
	}
	cells := 1
	names := make(map[string]bool, len(axes))
	conflicts := make(map[string]string)
	for i, ax := range axes {
		if len(ax.Points) == 0 {
			return fmt.Errorf("sweep %q: axis %d (%s): empty axis", s.Name, i, ax.Name)
		}
		if names[ax.Name] {
			return fmt.Errorf("sweep %q: duplicate axis %q", s.Name, ax.Name)
		}
		names[ax.Name] = true
		// Two axes over different parameters that write the same
		// configuration field (dstc and clustp both set Clustering) would
		// have the later axis silently overwrite the earlier one in every
		// cell — refuse the grid instead of reporting misleading results.
		if p, ok := LookupParam(ax.Name); ok && p.Conflicts != "" {
			if prev, clash := conflicts[p.Conflicts]; clash {
				return fmt.Errorf("sweep %q: axes %q and %q both set %s (use one)",
					s.Name, prev, ax.Name, p.Conflicts)
			}
			conflicts[p.Conflicts] = ax.Name
		}
		cells *= len(ax.Points)
		if cells > maxGridCells {
			return fmt.Errorf("sweep %q: grid expands to more than %d cells", s.Name, maxGridCells)
		}
	}
	if s.Protocol > DSTCProtocol {
		return fmt.Errorf("sweep %q: unknown protocol %d", s.Name, s.Protocol)
	}
	for _, m := range s.Metrics {
		if !m.ValidFor(s.Protocol) {
			return fmt.Errorf("sweep %q: metric %q not collected by the %s protocol", s.Name, m, s.Protocol)
		}
	}
	return nil
}

// maxGridCells bounds the cross-product size: one replicated experiment
// runs per cell, so a larger grid is a typo'd spec, and failing fast beats
// queueing months of simulation.
const maxGridCells = 100000

// axes resolves the spec's axis set (Axes, or the legacy 1-D Axis).
func (s *Sweep) axes() []Axis {
	if len(s.Axes) > 0 {
		return s.Axes
	}
	if len(s.Axis.Points) > 0 || s.Axis.Name != "" {
		return []Axis{s.Axis}
	}
	return nil
}

// metrics resolves the metric selection (nil = all for the protocol).
func (s *Sweep) metrics() []Metric {
	if len(s.Metrics) > 0 {
		return s.Metrics
	}
	return Metrics(s.Protocol)
}

// transactions and depth apply the DSTC protocol defaults (§4.4: 1000
// transactions, depth 3).
func (s *Sweep) transactions() int {
	if s.Transactions < 1 {
		return 1000
	}
	return s.Transactions
}

func (s *Sweep) depth() int {
	if s.Depth < 1 {
		return 3
	}
	return s.Depth
}

// cellSeed derives the replication seed of one grid cell: the legacy
// additive offset of the first axis (keeping 1-D sweeps bit-identical to
// the pre-grid engine), then an rng.SubSeed chain over the later axes'
// deltas so every cell of a grid draws a decorrelated stream even when
// deltas would sum to colliding values ((1,0) vs (0,1)).
func cellSeed(base uint64, axes []Axis, coords []int) uint64 {
	seed := base + axes[0].Points[coords[0]].SeedDelta
	for k := 1; k < len(axes); k++ {
		seed = rng.SubSeed(seed, axes[k].Points[coords[k]].SeedDelta)
	}
	return seed
}

// sliceSeed derives the base-generation seed of a generative slice: the
// cellSeed recipe restricted to the generative axes. With no generative
// axes it is the sweep seed itself — the whole grid is one slice, exactly
// the 1-D non-generative cache behavior.
func sliceSeed(base uint64, axes []Axis, coords []int, generative []bool) uint64 {
	seed := base
	for k := range axes {
		if !generative[k] {
			continue
		}
		d := axes[k].Points[coords[k]].SeedDelta
		if k == 0 {
			// Only axis 0 keeps the legacy additive offset (mirroring
			// cellSeed); generative axes in later positions always chain.
			seed += d
		} else {
			seed = rng.SubSeed(seed, d)
		}
	}
	return seed
}

// gridBases hands each cell its object-base source under ShareBases: one
// BaseCache per generative slice (the coordinates along generative axes),
// lazily built, shared by every cell of the slice — so a PGREP × buffer
// grid generates each replication's base once for the whole grid, and a
// NO × buffer grid once per NO value.
type gridBases struct {
	s          *Sweep
	axes       []Axis
	generative []bool
	seed       uint64
	layout     ocb.Layout
	caches     map[string]*BaseCache
}

func (g *gridBases) forCell(coords []int) (func(rep int, seed uint64) (*ocb.Database, error), error) {
	var key strings.Builder
	for k := range g.axes {
		if g.generative[k] {
			fmt.Fprintf(&key, "%d,", coords[k])
		}
	}
	cache := g.caches[key.String()]
	if cache == nil {
		// The slice's generation inputs: the base params specialized by
		// the generative axes only.
		cfg, params := g.s.Config, g.s.Params
		for k := range g.axes {
			if !g.generative[k] {
				continue
			}
			if apply := g.axes[k].Points[coords[k]].Apply; apply != nil {
				apply(&cfg, &params)
			}
		}
		if g.layout != ocb.LayoutEager {
			params.Layout = g.layout
		}
		var err error
		cache, err = NewBaseCache(params, sliceSeed(g.seed, g.axes, coords, g.generative))
		if err != nil {
			return nil, err
		}
		g.caches[key.String()] = cache
	}
	return cache.Base, nil
}

// Run executes the sweep: one replicated experiment per grid cell (a 1-D
// sweep is a one-axis grid), all cells sharing one replication-context
// pool (and, when enabled and eligible, per-slice object-base caches).
// Cells are independent replicated experiments, so execution order is
// free; results always report in row-major axis order and are
// bit-identical for every worker count.
func (s *Sweep) Run(o Options) (*Result, error) {
	return s.RunContext(context.Background(), o)
}

// RunContext is Run with cooperative cancellation and the fault-tolerance
// options: cells check ctx between attempts and propagate it into every
// replication (cancellation lands at replication boundaries and the
// kernel's coarse stop check — never on the per-event hot path). On
// cancellation the partial Result is returned alongside ctx's error, with
// completed cells intact and unreached cells CellPending, so callers can
// render what finished. Failed cells follow Options.Policy; completed
// cells stream to Options.Journal; Options.Resume replays a previous
// run's journal and executes only the remainder, byte-identical to an
// uninterrupted run.
func (s *Sweep) RunContext(ctx context.Context, o Options) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	axes := s.axes()
	metrics := s.metrics()
	pool := o.Pool
	if pool == nil {
		pool = core.NewContextPool()
	}

	generative := make([]bool, len(axes))
	allGenerative := true
	for i, ax := range axes {
		generative[i] = ax.Generative
		if !ax.Generative {
			allGenerative = false
		}
	}
	var bases *gridBases
	if o.ShareBases && !allGenerative && s.Protocol == Standard {
		bases = &gridBases{s: s, axes: axes, generative: generative, seed: o.Seed,
			layout: o.DBLayout, caches: make(map[string]*BaseCache)}
	}

	shape := make([]int, len(axes))
	names := make([]string, len(axes))
	cells := 1
	for i, ax := range axes {
		shape[i] = len(ax.Points)
		names[i] = ax.Name
		cells *= shape[i]
	}
	xlabel := names[0]
	if len(names) > 1 {
		xlabel = strings.Join(names, " × ")
	}
	res := &Result{
		Name:      s.Name,
		Title:     s.Title,
		XLabel:    xlabel,
		AxisNames: names,
		Shape:     shape,
		Metrics:   metrics,
		Points:    make([]PointResult, cells),
	}
	// Pre-fill every cell's identity (coordinates, labels, x) so an
	// interrupted campaign still renders its pending cells by position.
	coords := make([]int, len(axes))
	for i := 0; i < cells; i++ {
		decompose(i, shape, coords)
		labels := make([]string, len(axes))
		for k, ax := range axes {
			labels[k] = ax.Points[coords[k]].label()
		}
		res.Points[i] = PointResult{
			X:      axes[0].Points[coords[0]].X,
			Label:  strings.Join(labels, "/"),
			Coords: append([]int(nil), coords...),
			Labels: labels,
			Status: CellPending,
		}
	}

	if o.Resume != nil {
		if got, want := o.Resume.Header.Fingerprint, s.fingerprint(o, axes, metrics); got != want {
			return nil, fmt.Errorf("sweep %q: resume journal fingerprint %.12s… does not match this spec/options (%.12s…)",
				s.Name, got, want)
		}
	}

	conf := o.confidence()
	attempts := 1 + o.retries()
	for step := 0; step < cells; step++ {
		i := step
		if s.RunDescending {
			i = cells - 1 - step
		}
		decompose(i, shape, coords)
		seed := cellSeed(o.Seed, axes, coords)
		desc := cellDesc(names, res.Points[i].Labels)

		if o.Resume != nil {
			if replay, ok := o.Resume.Cells[i]; ok {
				if jseed := o.Resume.Seeds[i]; jseed != seed {
					return nil, fmt.Errorf("sweep %q: journal cell %s carries seed %d, spec derives %d (journal does not match)",
						s.Name, desc, jseed, seed)
				}
				pr := *replay
				// Trust the spec (not the journal) for cell identity.
				pr.X, pr.Label = res.Points[i].X, res.Points[i].Label
				pr.Coords, pr.Labels = res.Points[i].Coords, res.Points[i].Labels
				res.Points[i] = pr
				o.progress("%s %s: %s (replayed)", s.Name, desc, pr.Values[0].Interval)
				continue
			}
		}

		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("sweep %q interrupted at %s (%d/%d cells done): %w",
				s.Name, desc, res.Completed(), cells, err)
		}

		var pr PointResult
		var cellErr error
		for attempt := 1; attempt <= attempts; attempt++ {
			if attempt > 1 {
				o.progress("%s %s: attempt %d/%d after: %v", s.Name, desc, attempt, attempts, cellErr)
				if err := backoffWait(ctx, o.retryBackoff(), attempt-1); err != nil {
					return res, fmt.Errorf("sweep %q interrupted at %s (%d/%d cells done): %w",
						s.Name, desc, res.Completed(), cells, err)
				}
			}
			pr, cellErr = s.runCellOnce(ctx, o, axes, coords, seed, metrics, conf, pool, bases)
			if cellErr == nil {
				break
			}
			if err := ctx.Err(); err != nil {
				// The campaign (not the cell) was cancelled mid-attempt:
				// report interruption, not a cell failure.
				return res, fmt.Errorf("sweep %q interrupted at %s (%d/%d cells done): %w",
					s.Name, desc, res.Completed(), cells, err)
			}
		}
		if cellErr != nil {
			ce := newCellError(s.Name, i, coords, desc, seed, attempts, cellErr)
			if o.Policy == FailFast {
				return res, ce
			}
			res.Points[i].Status = CellFailed
			res.Points[i].Err = ce
			res.Failures = append(res.Failures, ce)
			o.progress("%s %s: FAILED (%v)", s.Name, desc, cellErr)
			continue
		}
		// Keep the pre-filled identity; adopt the computed payload.
		pr.X, pr.Label = res.Points[i].X, res.Points[i].Label
		pr.Coords, pr.Labels = res.Points[i].Coords, res.Points[i].Labels
		res.Points[i] = pr
		if o.Journal != nil {
			if err := o.Journal.RecordCell(i, seed, &res.Points[i]); err != nil {
				return res, fmt.Errorf("sweep %q at %s: %w", s.Name, desc, err)
			}
		}
		o.progress("%s %s: %s", s.Name, desc, pr.Values[0].Interval)
	}
	return res, nil
}

// runCellOnce executes one attempt of one grid cell — the point mutators,
// the layout override, the base lookup, and the replicated experiment —
// under a panic guard: a panic anywhere in cell setup surfaces as a
// *cellPanic error (replication-body panics already surface as
// *core.PanicError from the engine), so a poisoned cell can be retried or
// skipped without crashing the campaign.
func (s *Sweep) runCellOnce(ctx context.Context, o Options, axes []Axis, coords []int,
	seed uint64, metrics []Metric, conf float64, pool *core.ContextPool, bases *gridBases) (pr PointResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &cellPanic{value: r, stack: debug.Stack()}
		}
	}()
	if o.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.CellTimeout)
		defer cancel()
	}
	cfg, params := s.Config, s.Params
	for k, ax := range axes {
		if apply := ax.Points[coords[k]].Apply; apply != nil {
			apply(&cfg, &params)
		}
	}
	if o.DBLayout != ocb.LayoutEager {
		params.Layout = o.DBLayout
	}
	var base func(rep int, seed uint64) (*ocb.Database, error)
	if bases != nil {
		if base, err = bases.forCell(coords); err != nil {
			return PointResult{}, err
		}
	}
	switch s.Protocol {
	case DSTCProtocol:
		e := core.DSTCExperiment{
			Config:       cfg,
			Params:       params,
			Transactions: s.transactions(),
			Depth:        s.depth(),
			Seed:         seed,
			Replications: o.reps(),
			Workers:      o.Workers,
			Pool:         pool,
		}
		dstc, err := e.RunContext(ctx)
		if err != nil {
			return PointResult{}, err
		}
		pr.DSTC = dstc
		for _, m := range metrics {
			pr.Values = append(pr.Values, Value{Metric: m, Interval: m.interval(nil, dstc, conf)})
		}
	default:
		e := core.Experiment{
			Config:       cfg,
			Params:       params,
			Seed:         seed,
			Replications: o.reps(),
			Workers:      o.Workers,
			Pool:         pool,
			Base:         base,
		}
		r, err := e.RunContext(ctx)
		if err != nil {
			return PointResult{}, err
		}
		pr.Result = r
		for _, m := range metrics {
			pr.Values = append(pr.Values, Value{Metric: m, Interval: m.interval(r, nil, conf)})
		}
	}
	pr.Status = CellCompleted
	return pr, nil
}

// fingerprint hashes everything that determines the sweep's numeric
// results — the spec identity (name, protocol, axes, points with their
// seed deltas, base Config/Params) and the result-affecting options
// (replications, seed, confidence, ShareBases). Workers and the
// fault-tolerance knobs are deliberately excluded: results are
// bit-identical across them, so a journal written at -workers 4 resumes
// cleanly at -workers 1. Config and Params are hashed through %+v, so
// adding, removing or renaming any of their fields changes every
// fingerprint; TestFingerprintFieldNames pins the field list so such a
// change also bumps journalVersion. Point.Apply
// closures cannot be hashed; axes built from the parameter registry are
// identified by axis name + point labels, which pin the registry mutation.
func (s *Sweep) fingerprint(o Options, axes []Axis, metrics []Metric) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s v%d\n", journalKind, journalVersion)
	fmt.Fprintf(h, "name=%s proto=%d tx=%d depth=%d\n", s.Name, s.Protocol, s.transactions(), s.depth())
	fmt.Fprintf(h, "cfg=%+v\n", s.Config)
	fmt.Fprintf(h, "params=%+v\n", s.Params)
	fmt.Fprintf(h, "reps=%d seed=%d conf=%g share=%t\n", o.reps(), o.Seed, o.confidence(), o.ShareBases)
	// The layout override changes which derivation generates the bases
	// (v1 vs v2 streams), so it is result-affecting — but only emit it when
	// set, keeping journals from before the knob existed resumable.
	if o.DBLayout != ocb.LayoutEager {
		fmt.Fprintf(h, "layout=%s\n", o.DBLayout)
	}
	for _, ax := range axes {
		fmt.Fprintf(h, "axis=%s gen=%t\n", ax.Name, ax.Generative)
		for _, pt := range ax.Points {
			fmt.Fprintf(h, " point x=%g label=%s delta=%d\n", pt.X, pt.label(), pt.SeedDelta)
		}
	}
	for _, m := range metrics {
		fmt.Fprintf(h, "metric=%s\n", m)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// StartJournal creates a checkpoint journal for running this sweep with
// these options and writes its header; pass the returned Journal in
// Options.Journal. The caller closes it when the run ends.
func (s *Sweep) StartJournal(path string, o Options) (*Journal, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	axes := s.axes()
	metrics := s.metrics()
	names := make([]string, len(axes))
	shape := make([]int, len(axes))
	cells := 1
	for i, ax := range axes {
		names[i] = ax.Name
		shape[i] = len(ax.Points)
		cells *= shape[i]
	}
	metricNames := make([]string, len(metrics))
	for i, m := range metrics {
		metricNames[i] = string(m)
	}
	return CreateJournal(path, JournalHeader{
		Sweep:        s.Name,
		Fingerprint:  s.fingerprint(o, axes, metrics),
		Axes:         names,
		Shape:        shape,
		Metrics:      metricNames,
		Seed:         o.Seed,
		Replications: o.reps(),
		Cells:        cells,
	})
}

// ResumeJournal reads an interrupted run's journal, verifies it was
// written by this sweep with result-equivalent options (fingerprint
// match), and reopens it for appending: set the returned values as
// Options.Journal and Options.Resume and call RunContext to execute the
// remainder. The merged result is byte-identical to an uninterrupted run.
func (s *Sweep) ResumeJournal(path string, o Options) (*Journal, *JournalData, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	d, err := ReadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if got, want := d.Header.Fingerprint, s.fingerprint(o, s.axes(), s.metrics()); got != want {
		return nil, nil, fmt.Errorf("sweep %q: journal %s was written by a different spec or options (fingerprint %.12s…, this run %.12s…)",
			s.Name, path, got, want)
	}
	j, err := AppendJournal(path)
	if err != nil {
		return nil, nil, err
	}
	return j, d, nil
}

// cellDesc renders a cell position as "axis=label axis=label" (progress
// lines and errors); for 1-D sweeps this is the classic "axis=label".
func cellDesc(names, labels []string) string {
	var b strings.Builder
	for k := range names {
		if k > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(names[k])
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}
