// Package voodb is the public API of this VOODB reproduction: a generic
// discrete-event random simulation model for evaluating the performance of
// object-oriented database systems (Darmont & Schneider, VLDB 1999).
//
// The package re-exports the internal engine under one roof:
//
//   - Config / SystemClass and the Table 3 parameter set (DefaultConfig)
//   - the O₂ and Texas instantiations of Table 4 (O2, Texas, …)
//   - the OCB workload model and its parameters (WorkloadParams, …)
//   - replicated experiments with Student-t confidence intervals
//     (Experiment, DSTCExperiment), run in parallel across cores with
//     bit-identical results (the Workers field; 1 forces sequential)
//   - declarative multi-metric parameter sweeps (Sweep, Axes, Metric):
//     any Table 3 or OCB parameter — numeric, integer, enum (SYSCLASS,
//     PGREP, INITPL, CLUSTP) or switch — swept over any metric subset,
//     executed through the pooled replication engine (RunSweep), including
//     multi-axis cross-product grids with heatmap rendering (Grid,
//     SweepResult.Heatmap); ParseSweepAxis builds every registry axis
//     from the -sweep text ("mpl=1:16:5", "pgrep=all", "physoids=on,off"),
//     and a hand-built Axis{Points: …} serves any custom study
//   - low-level model access for custom studies (NewRun)
//
// A minimal study:
//
//	cfg := voodb.O2()
//	params := voodb.DefaultWorkload()
//	params.NO = 5000
//	res, err := voodb.Experiment{
//		Config: cfg, Params: params, Seed: 42, Replications: 100,
//	}.Run()
//	if err != nil { ... }
//	fmt.Println("mean I/Os:", res.IOsCI())
package voodb

import (
	"context"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ocb"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/sweep"
	"repro/internal/systems"
)

// DefaultReplications is the replication count the harnesses use when none
// is given; PaperReplications is the count of the paper's own §4.2.2
// protocol (pass it for paper-grade confidence intervals).
const (
	DefaultReplications = sweep.DefaultReplications
	PaperReplications   = sweep.PaperReplications
)

// Config is the VOODB parameter set (Table 3 of the paper).
type Config = core.Config

// SystemClass selects the modelled architecture (Table 3 SYSCLASS).
type SystemClass = core.SystemClass

// System classes.
const (
	Centralized  = core.Centralized
	ObjectServer = core.ObjectServer
	PageServer   = core.PageServer
	DBServer     = core.DBServer
)

// ClusteringKind selects the Clustering Manager module (CLUSTP).
type ClusteringKind = core.ClusteringKind

// Clustering modules.
const (
	NoClustering = core.NoClustering
	DSTC         = core.DSTC
	GreedyGraph  = core.GreedyGraph
)

// PrefetchKind selects the prefetching policy (PREFETCH).
type PrefetchKind = core.PrefetchKind

// Prefetch policies.
const (
	NoPrefetch = core.NoPrefetch
	OneAhead   = core.OneAhead
)

// Placement selects the initial object placement (INITPL).
type Placement = storage.Placement

// Placement policies.
const (
	Sequential          = storage.Sequential
	OptimizedSequential = storage.OptimizedSequential
)

// DSTCParams tunes the DSTC clustering module.
type DSTCParams = cluster.DSTCParams

// FailureParams injects random system failures (the paper's §5 extension).
type FailureParams = core.FailureParams

// FailureStats reports injected failures.
type FailureStats = core.FailureStats

// WorkloadParams is the OCB benchmark parameter set.
type WorkloadParams = ocb.Params

// Layout selects the object-base generation layout
// (WorkloadParams.Layout): how an OCB base's objects are derived and
// held in memory.
type Layout = ocb.Layout

// Object-base layouts.
const (
	// LayoutEager is the legacy sequential derivation with every object
	// materialized (the default; all published goldens pin it).
	LayoutEager = ocb.LayoutEager
	// LayoutEagerV2 is the counter-based v2 derivation, still fully
	// materialized — the eager twin of LayoutStream, bit-identical to it.
	LayoutEagerV2 = ocb.LayoutEagerV2
	// LayoutStream is the v2 derivation with on-demand materialization:
	// resident memory stays O(hot-set + classes) regardless of
	// WorkloadParams.NO, enabling million-object bases.
	LayoutStream = ocb.LayoutStream
)

// Database is a generated OCB object base.
type Database = ocb.Database

// Transaction is one OCB transaction.
type Transaction = ocb.Transaction

// Workload is a cold+hot transaction stream.
type Workload = ocb.Workload

// Run is one instantiated model (advanced use; most studies go through
// Experiment).
type Run = core.Run

// BatchStats reports one executed batch.
type BatchStats = core.BatchStats

// Experiment is a replicated simulation study.
type Experiment = core.Experiment

// Result aggregates an Experiment.
type Result = core.Result

// DSTCExperiment is the paper's §4.4 clustering protocol.
type DSTCExperiment = core.DSTCExperiment

// DSTCResult aggregates a DSTCExperiment.
type DSTCResult = core.DSTCResult

// ContextPool shares replication contexts (model, database arenas,
// workload buffers) across successive experiments — hand one pool to every
// point of a sweep and each worker's heavy state is built once for the
// whole sweep. Results are bit-identical with or without a pool.
type ContextPool = core.ContextPool

// NewContextPool returns an empty replication-context pool for
// Experiment.Pool / DSTCExperiment.Pool.
func NewContextPool() *ContextPool { return core.NewContextPool() }

// Interval is a Student-t confidence interval.
type Interval = stats.Interval

// Sample is a replication sample.
type Sample = stats.Sample

// DefaultConfig returns the Table 3 default column.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultWorkload returns the OCB defaults with the Table 5 workload.
func DefaultWorkload() WorkloadParams { return ocb.DefaultParams() }

// DSTCWorkload returns the §4.4 DSTC experiment profile.
func DSTCWorkload() WorkloadParams { return ocb.DSTCExperimentParams() }

// DefaultDSTCParams returns the calibrated DSTC tuning.
func DefaultDSTCParams() DSTCParams { return cluster.DefaultDSTCParams() }

// O2 returns the Table 4 O₂ configuration.
func O2() Config { return systems.O2() }

// O2WithCache returns O₂ with the given server cache in MB (Figure 8).
func O2WithCache(cacheMB int) Config { return systems.O2WithCache(cacheMB) }

// Texas returns the Table 4 Texas configuration.
func Texas() Config { return systems.Texas() }

// TexasWithMemory returns Texas with the given main memory in MB
// (Figure 11).
func TexasWithMemory(memMB int) Config { return systems.TexasWithMemory(memMB) }

// TexasDSTC returns Texas with the DSTC module installed (§4.4).
func TexasDSTC() Config { return systems.TexasDSTC() }

// TexasLogicalOIDs returns Texas+DSTC with logical OIDs (the simulation
// column of Table 6).
func TexasLogicalOIDs() Config { return systems.TexasLogicalOIDs() }

// GenerateDatabase builds an OCB object base.
func GenerateDatabase(p WorkloadParams, seed uint64) (*Database, error) {
	return ocb.Generate(p, seed)
}

// GenerateWorkload draws a cold+hot transaction stream over db.
func GenerateWorkload(db *Database, seed uint64) *Workload {
	return ocb.GenerateWorkload(db, seed)
}

// GenerateHierarchyWorkload draws fixed-depth hierarchy traversals (the
// DSTC experiment's characteristic transactions).
func GenerateHierarchyWorkload(db *Database, seed uint64, n, depth int) []Transaction {
	return ocb.GenerateHierarchyWorkload(db, seed, n, depth)
}

// NewRun instantiates the model directly for custom protocols.
func NewRun(cfg Config, db *Database, seed uint64) (*Run, error) {
	return core.NewRun(cfg, db, seed)
}

// ConfidenceInterval computes a Student-t interval over a replication
// sample (the paper's §4.2.2 output analysis).
func ConfidenceInterval(s *Sample, confidence float64) Interval {
	return stats.ConfidenceInterval(s, confidence)
}

// RequiredReplications applies the paper's pilot-study sizing rule
// n* = n·(h/h*)²: the total replications needed to shrink a pilot interval
// of half-width h to the desired half-width.
func RequiredReplications(pilotN int, pilotHalfWidth, desiredHalfWidth float64) int {
	return stats.RequiredReplications(pilotN, pilotHalfWidth, desiredHalfWidth)
}

// BufferPolicies lists the supported PGREP values.
func BufferPolicies() []string { return buffer.PolicyNames() }

// --- declarative sweeps ---
//
// A Sweep is a parameter study as data: a base Config + WorkloadParams,
// Axes of per-point mutations, and a metric selection. One generic runner
// executes any spec through the pooled replication engine, collecting a
// Student-t interval per metric per point. A minimal study:
//
//	axis, _ := voodb.ParseSweepAxis("mpl=1:16:5")
//	res, err := voodb.RunSweep(voodb.Sweep{
//		Name: "mpl-study", Config: voodb.DefaultConfig(),
//		Params: voodb.DefaultWorkload(),
//		Axes: []voodb.Axis{axis}, Metrics: []voodb.Metric{voodb.MetricIOs, voodb.MetricRespMs},
//	}, voodb.SweepOptions{Replications: 10, Seed: 42})
//	if err != nil { ... }
//	fmt.Print(res.Text())

// Sweep is a declarative parameter study over the evaluation model. Its
// Axes hold one axis for a 1-D study, or several (see Grid) for the full
// cross-product, with 2-D results renderable as heatmaps
// (SweepResult.Heatmap / HeatmapCSV) and N-D results as facet tables
// (SweepResult.FacetTables). Its Params.Layout selects the object-base
// layout of every cell whose axes leave it unset.
type Sweep = sweep.Sweep

// Axis is one independent variable of a sweep: a named series of points.
type Axis = sweep.Axis

// AxisPoint is one position on a sweep axis.
type AxisPoint = sweep.Point

// ParamKind classifies a sweepable parameter's value domain: Table 3
// mixes continuous knobs, integer counts, categorical selectors
// (SYSCLASS, PGREP, INITPL, CLUSTP) and switches, and every kind is
// sweepable by name.
type ParamKind = sweep.Kind

// Parameter kinds.
const (
	NumericParam = sweep.KindNumeric
	IntegerParam = sweep.KindInteger
	EnumParam    = sweep.KindEnum
	BoolParam    = sweep.KindBool
)

// Metric identifies one collected simulation output.
type Metric = sweep.Metric

// Collected metrics. The standard protocol collects the first block; the
// DSTC protocol (Tables 6–8 style studies) the second.
const (
	MetricIOs         = sweep.IOs
	MetricReads       = sweep.Reads
	MetricWrites      = sweep.Writes
	MetricHitPct      = sweep.HitPct
	MetricRespMs      = sweep.RespMs
	MetricThroughput  = sweep.ThroughputTPS
	MetricNetMessages = sweep.NetMessages
	MetricNetBytes    = sweep.NetBytes
	MetricLockWaits   = sweep.LockWaits
	MetricReorgIOs    = sweep.ReorgIOs
	// MetricBypassRate charts the fraction of executed events that
	// bypassed the kernel's calendar, continued in place when no other
	// event could fire first (firing order is the same either way).
	MetricBypassRate = sweep.BypassRate

	MetricPreIOs        = sweep.PreIOs
	MetricOverheadIOs   = sweep.OverheadIOs
	MetricPostIOs       = sweep.PostIOs
	MetricGain          = sweep.Gain
	MetricClusters      = sweep.Clusters
	MetricObjPerCluster = sweep.ObjPerCluster
)

// SweepProtocol selects what a sweep runs at each point.
type SweepProtocol = sweep.Protocol

// Sweep protocols.
const (
	StandardProtocol = sweep.Standard
	DSTCProtocol     = sweep.DSTCProtocol
)

// SweepOptions control one execution of a sweep.
type SweepOptions = sweep.Options

// SweepResult is a completed sweep: per-point metric vectors plus
// rendering helpers (Text, CSV, Chart).
type SweepResult = sweep.Result

// SweepPoint is one completed sweep point.
type SweepPoint = sweep.PointResult

// SweepValue is one collected metric of one point.
type SweepValue = sweep.Value

// SweepParam describes one named sweepable parameter (Table 3 system knobs
// and OCB workload knobs).
type SweepParam = sweep.Param

// RunSweep executes a declarative sweep. Results are bit-identical for
// every Workers count, with one replication-context pool spanning all
// points (and, with SweepOptions.ShareBases on a non-generative axis,
// one object-base cache).
func RunSweep(s Sweep, o SweepOptions) (*SweepResult, error) { return s.Run(o) }

// RunSweepContext is RunSweep with cooperative cancellation and the
// fault-tolerance options (SweepOptions.Policy, CellTimeout, Journal,
// Resume): cancellation lands at replication boundaries — never on the
// simulation hot path — and the partial result is returned alongside
// ctx's error, with completed cells intact and unreached cells pending.
func RunSweepContext(ctx context.Context, s Sweep, o SweepOptions) (*SweepResult, error) {
	return s.RunContext(ctx, o)
}

// SweepFailurePolicy decides what a sweep does after recording a cell that
// failed at run time (a panic or a blown per-cell deadline): FailFast
// stops, SkipFailed continues. Resuming the journal re-runs failed cells.
type SweepFailurePolicy = sweep.FailurePolicy

// Failure policies (SweepOptions.Policy).
const (
	FailFast   = sweep.FailFast
	SkipFailed = sweep.SkipFailed
)

// ParseFailurePolicy reads a policy name: "fail" (or "") or "skip".
func ParseFailurePolicy(name string) (SweepFailurePolicy, error) {
	return sweep.ParseFailurePolicy(name)
}

// CellError is one grid cell's run-time failure: position, axis values,
// derived seed, and the recovered panic stack when applicable. It wraps
// the underlying error for errors.Is/As.
type CellError = sweep.CellError

// CellStatus is a sweep cell's lifecycle state in a partial result.
type CellStatus = sweep.CellStatus

// Cell states (SweepPoint.Status).
const (
	CellPending   = sweep.CellPending
	CellCompleted = sweep.CellCompleted
	CellFailed    = sweep.CellFailed
)

// ReplicationPanic is a panic recovered inside one replication body,
// converted to an error by the engine (the replication index, the panic
// value, and the goroutine stack at the panic site).
type ReplicationPanic = core.PanicError

// SweepJournal streams completed sweep cells to a JSONL checkpoint file;
// create one with Sweep.StartJournal and pass it in SweepOptions.Journal.
type SweepJournal = sweep.Journal

// SweepJournalData is a parsed checkpoint journal; obtain one with
// Sweep.ResumeJournal (which also verifies it matches the spec) and pass
// it in SweepOptions.Resume to replay its cells and run only the
// remainder — byte-identical to an uninterrupted run.
type SweepJournalData = sweep.JournalData

// ReadSweepJournal parses a checkpoint journal without validating it
// against a spec (inspection/tooling; resume paths should use
// Sweep.ResumeJournal instead).
func ReadSweepJournal(path string) (*SweepJournalData, error) { return sweep.ReadJournal(path) }

// SweepMetrics lists every metric the protocol collects, in display order.
func SweepMetrics(p SweepProtocol) []Metric { return sweep.Metrics(p) }

// ParseSweepMetrics parses a comma-separated metric subset ("ios,resp")
// against the protocol's metric set; an empty list selects all.
func ParseSweepMetrics(list string, p SweepProtocol) ([]Metric, error) {
	return sweep.ParseMetrics(list, p)
}

// SweepParams lists every named sweepable parameter.
func SweepParams() []SweepParam { return sweep.Params() }

// Grid assembles several axes into the Axes field of a multi-axis sweep:
//
//	voodb.Sweep{..., Axes: voodb.Grid(policyAxis, bufferAxis)}
//
// runs the full cross-product of the axes' points.
func Grid(axes ...Axis) []Axis { return sweep.Grid(axes...) }

// ParseSweepAxis compiles a textual axis spec into an Axis, in the words
// of cmd/experiments -sweep: a numeric list or range ("mpl=1:16:5",
// "writeprob=0,0.05,0.2"), enum choices ("pgrep=LRU,FIFO", case-insensitive)
// or every choice ("sysclass=all"), and switch states ("physoids=on,off",
// "physoids=all"). It is the one constructor of a registry axis.
func ParseSweepAxis(spec string) (Axis, error) { return sweep.ParseAxis(spec) }

// ChartData is one named curve of a multi-series ASCII chart.
type ChartData = report.Series

// Chart renders curves over a shared labelled x-axis — for studies that
// compare several sweeps (e.g. one series per architecture).
func Chart(title string, xLabels []string, series []ChartData, height int) string {
	return report.ChartSeries(title, xLabels, series, height)
}
