package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/ocb"
	"repro/internal/rng"
	"repro/internal/stats"
)

// repContext is a replication worker's long-lived state: the instantiated
// model, a reusable object base, and reusable workload buffers. The first
// replication a context runs builds everything; every later one resets the
// pieces in place (Run.Reset, ocb.GenerateInto, Workload.GenerateInto), so
// steady-state replication setup allocates near-zero — the DESP-C++
// recycle-never-reallocate discipline applied to the replication engine
// itself. A reset context is observationally identical to a fresh one; the
// golden tests pin this bit for bit.
type repContext struct {
	run *Run
	cfg Config // configuration run was built with (a Run's config is fixed)
	db  *ocb.Database
	w   *ocb.Workload
}

// generate rebuilds the context's owned database for p and seed, bit
// identical to ocb.Generate(p, seed).
func (c *repContext) generate(p ocb.Params, seed uint64) (*ocb.Database, error) {
	if c.db == nil {
		c.db = new(ocb.Database)
	}
	if err := ocb.GenerateInto(c.db, p, seed); err != nil {
		return nil, err
	}
	return c.db, nil
}

// runFor returns the context's model instantiated for (cfg, db, seed):
// reset in place when the configuration matches the previous replication's
// (the common case — a point's replications share one Config), rebuilt
// otherwise (a pooled context crossing to a sweep point with, say, a
// different buffer size).
func (c *repContext) runFor(cfg Config, db *ocb.Database, seed uint64) (*Run, error) {
	if c.run != nil && c.cfg == cfg {
		c.run.Reset(db, seed)
		return c.run, nil
	}
	run, err := NewRun(cfg, db, seed)
	if err != nil {
		return nil, err
	}
	c.run, c.cfg = run, cfg
	return run, nil
}

// workload returns the context's reusable workload buffer.
func (c *repContext) workload() *ocb.Workload {
	if c.w == nil {
		c.w = new(ocb.Workload)
	}
	return c.w
}

// ContextPool shares replication contexts across successive experiment
// runs. Without a pool, every Experiment.Run warms fresh contexts and the
// first replication on each worker pays the full O(DB size) build; a sweep
// that hands the same pool to every point amortizes that build across the
// whole sweep. A nil *ContextPool is valid (per-run contexts).
//
// Pooling is invisible in the results: contexts are fully reset between
// replications, so any worker may take any context at any point without
// perturbing a single bit of the output. The zero value is an empty,
// usable pool; NewContextPool exists for symmetry at call sites.
type ContextPool struct {
	mu   sync.Mutex
	free []*repContext
}

// NewContextPool returns an empty pool.
func NewContextPool() *ContextPool { return &ContextPool{} }

// get hands out a recycled context, or a fresh one when the pool is empty
// or nil.
func (p *ContextPool) get() *repContext {
	if p == nil {
		return &repContext{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return &repContext{}
}

// put returns a context to the pool (a no-op for a nil pool).
func (p *ContextPool) put(c *repContext) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// Result aggregates a replicated experiment. Every metric is a sample over
// replications; confidence intervals follow §4.2.2 of the paper (Student-t,
// 95 % by default).
type Result struct {
	Confidence float64

	IOs        stats.Sample // the paper's headline metric
	Reads      stats.Sample
	Writes     stats.Sample
	HitRatio   stats.Sample
	RespMs     stats.Sample
	Throughput stats.Sample

	// Full metric vector (measured over the hot batch, like the above):
	// client–server network traffic, queued lock requests, and I/Os spent
	// in reorganizations triggered mid-batch.
	NetMessages stats.Sample
	NetBytes    stats.Sample
	LockWaits   stats.Sample
	ReorgIOs    stats.Sample

	// CalendarPeak is the largest pending-event high-water mark any
	// replication reached — the calendar depth this configuration actually
	// exercised (see PERFORMANCE.md).
	CalendarPeak int

	// BypassRate samples the fraction of executed events dispatched through
	// the head-slot register (the bit-identical next-event fast path) across
	// replications. Like CalendarPeak it describes the execution schedule,
	// not the simulated results, so it never enters golden fingerprints.
	BypassRate stats.Sample
}

// IOsCI returns the confidence interval of the mean I/O count.
func (res *Result) IOsCI() stats.Interval {
	return stats.ConfidenceInterval(&res.IOs, res.Confidence)
}

// Experiment describes one replicated simulation: a system configuration, a
// workload parameterization, and replication control.
type Experiment struct {
	Config Config
	Params ocb.Params
	// Seed derives every replication's random streams.
	Seed uint64
	// Replications is the number of independent replications (the paper
	// used 100).
	Replications int
	// Confidence is the CI level (default 0.95 when zero).
	Confidence float64
	// Workers bounds how many replications run concurrently: 0 (the
	// default) uses all available cores, 1 forces the sequential engine.
	// Results are bit-identical for every worker count.
	Workers int
	// Pool, when non-nil, shares replication contexts with other
	// experiments (the points of a sweep), amortizing model and database
	// construction across them. Results are bit-identical with or without
	// a pool.
	Pool *ContextPool
	// Base, when non-nil, supplies replication rep's object base instead
	// of generating it into the worker's context. seed is the
	// replication's derived seed, passed for suppliers that want to
	// reproduce the Base == nil database exactly (ocb.Generate(Params,
	// seed)); a supplier may also ignore it and derive bases from its own
	// sweep-level seed — the object-base cache does, which is what lets
	// one base be shared across sweep points whose experiment seeds
	// differ, and which then intentionally changes results relative to
	// Base == nil (see experiments.Options.ShareBases). Either way the
	// supplier must be deterministic in rep, and the returned database is
	// treated as immutable, so it may be shared across concurrent
	// replications and sweep points. A supplier that cannot produce the
	// base returns an error (never panics): the error fails this
	// replication's experiment through the normal error path.
	Base func(rep int, seed uint64) (*ocb.Database, error)
}

func (e Experiment) confidence() float64 {
	if e.Confidence == 0 {
		return 0.95
	}
	return e.Confidence
}

// repSeed derives the replication's seed through the SplitMix64 substream
// construction, so adjacent experiment seeds cannot collide with adjacent
// replication indices (as the old additive e.Seed + rep·const scheme
// could).
func repSeed(seed uint64, rep int) uint64 {
	return rng.SubSeed(seed, uint64(rep))
}

// repRow carries one replication's metrics back to the fold. Keeping rows
// as plain values lets the parallel runner store them by replication index
// and fold in order, which makes the aggregate bit-identical to the
// sequential engine.
type repRow struct {
	ios, reads, writes   float64
	hitRatio, respMs, tp float64
	netMsgs, netBytes    float64
	lockWaits, reorgIOs  float64
	bypass               float64
	calPeak              int
}

// installStopCheck points the run's kernel-level stop check at the
// context's cancellation signal, so a cancelled or deadline-hit experiment
// interrupts a replication mid-simulation (at the kernel's coarse poll
// interval) instead of having to finish it. With an uncancellable context
// no hook is installed and the kernel loop stays hook-free.
func installStopCheck(run *Run, ctx context.Context) {
	if ctx.Done() == nil {
		return
	}
	run.SetStopCheck(func() bool { return ctx.Err() != nil })
}

// runRep executes one replication on c: obtain the replication's object
// base (shared via Base, or regenerated into the context) and workload
// from replication-specific seeds, reset the context's model, play the
// cold run unmeasured and the hot run measured. ctx cancellation is
// checked between the heavy phases and, via the kernel stop check, at a
// coarse interval inside each batch.
func (e Experiment) runRep(ctx context.Context, c *repContext, rep int) (repRow, error) {
	seed := repSeed(e.Seed, rep)
	var db *ocb.Database
	var err error
	if e.Base != nil {
		if db, err = e.Base(rep, seed); err != nil {
			return repRow{}, err
		}
	}
	if db == nil {
		if db, err = c.generate(e.Params, seed); err != nil {
			return repRow{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return repRow{}, err
	}
	run, err := c.runFor(e.Config, db, seed)
	if err != nil {
		return repRow{}, err
	}
	installStopCheck(run, ctx)
	w := c.workload()
	w.GenerateInto(db, seed+1)
	if len(w.Cold) > 0 {
		run.ExecuteBatch(w.Cold)
	}
	st := run.ExecuteBatch(w.Hot)
	w.Release()
	if run.Halted() {
		// The batch was interrupted mid-simulation; its metrics are
		// meaningless and the model state is mid-flight (the parallel
		// runner discards the context on error).
		return repRow{}, ctx.Err()
	}
	return repRow{
		ios:       float64(st.IOs),
		reads:     float64(st.Reads),
		writes:    float64(st.Writes),
		hitRatio:  st.HitRatio,
		respMs:    st.MeanRespMs,
		tp:        st.ThroughputTPS,
		netMsgs:   float64(st.NetMessages),
		netBytes:  float64(st.NetBytes),
		lockWaits: float64(st.LockWaits),
		reorgIOs:  float64(st.ReorgIOs),
		bypass:    st.BypassRate,
		calPeak:   run.CalendarPeak(),
	}, nil
}

// Run executes the experiment's replications — in parallel across Workers
// goroutines — and folds the per-replication metrics in replication order.
func (e Experiment) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run under a context: cancellation (or a deadline) is
// observed at replication boundaries and, through the kernel's coarse stop
// check, mid-replication — never per event, so the hot path stays
// allocation-free. A cancelled experiment returns ctx's error; no partial
// Result is produced (partial-campaign semantics live one layer up, in the
// sweep cell scheduler). A replication panic is recovered into a
// *PanicError instead of crashing the campaign, and the worker context it
// may have poisoned is discarded rather than re-pooled.
func (e Experiment) RunContext(ctx context.Context) (*Result, error) {
	if e.Replications < 1 {
		return nil, fmt.Errorf("core: Replications = %d", e.Replications)
	}
	if err := e.Params.Validate(); err != nil {
		return nil, err
	}
	rows, err := runReplications(ctx, e.Replications, e.Workers, e.Pool,
		func(c *repContext, rep int) (repRow, error) { return e.runRep(ctx, c, rep) })
	if err != nil {
		return nil, err
	}
	res := &Result{Confidence: e.confidence()}
	for i := range rows {
		res.IOs.Add(rows[i].ios)
		res.Reads.Add(rows[i].reads)
		res.Writes.Add(rows[i].writes)
		res.HitRatio.Add(rows[i].hitRatio)
		res.RespMs.Add(rows[i].respMs)
		res.Throughput.Add(rows[i].tp)
		res.NetMessages.Add(rows[i].netMsgs)
		res.NetBytes.Add(rows[i].netBytes)
		res.LockWaits.Add(rows[i].lockWaits)
		res.ReorgIOs.Add(rows[i].reorgIOs)
		res.BypassRate.Add(rows[i].bypass)
		if rows[i].calPeak > res.CalendarPeak {
			res.CalendarPeak = rows[i].calPeak
		}
	}
	return res, nil
}

// DSTCResult aggregates the paper's §4.4 protocol over replications: usage
// before clustering, the reorganization overhead, usage after clustering,
// the gain (Tables 6 and 8), and the cluster statistics (Table 7).
type DSTCResult struct {
	Confidence float64

	PreIOs      stats.Sample
	OverheadIOs stats.Sample
	PostIOs     stats.Sample
	Gain        stats.Sample
	Clusters    stats.Sample
	ObjPerClus  stats.Sample
}

// DSTCExperiment is the §4.4 protocol: run characteristic hierarchy
// traversals, reorganize with the configured clustering policy, run a fresh
// draw of the same workload, and compare.
type DSTCExperiment struct {
	Config Config
	Params ocb.Params
	// Transactions per phase (the paper used HOTN = 1000).
	Transactions int
	// Depth of the hierarchy traversals (the paper used 3).
	Depth        int
	Seed         uint64
	Replications int
	Confidence   float64
	// Workers bounds how many replications run concurrently: 0 (the
	// default) uses all available cores, 1 forces the sequential engine.
	Workers int
	// Pool, when non-nil, shares replication contexts with other
	// experiments; see Experiment.Pool.
	Pool *ContextPool
}

// dstcRow carries one replication's §4.4 metrics back to the fold.
type dstcRow struct {
	pre, overhead, post float64
	gain                float64
	hasGain             bool
	clusters, objPer    float64
}

func (e DSTCExperiment) runRep(ctx context.Context, c *repContext, rep int) (dstcRow, error) {
	seed := repSeed(e.Seed, rep)
	db, err := c.generate(e.Params, seed)
	if err != nil {
		return dstcRow{}, err
	}
	if err := ctx.Err(); err != nil {
		return dstcRow{}, err
	}
	run, err := c.runFor(e.Config, db, seed)
	if err != nil {
		return dstcRow{}, err
	}
	installStopCheck(run, ctx)
	w := c.workload()
	w.GenerateHierarchyInto(db, seed+1, e.Transactions, e.Depth)
	pre := run.ExecuteBatch(w.Hot)
	w.Release()
	run.PerformClustering(func() {})
	run.sim.Run() // drain the reorganization's scheduled I/O
	reorg := run.LastReorgReport()
	w.GenerateHierarchyInto(db, seed+2, e.Transactions, e.Depth)
	post := run.ExecuteBatch(w.Hot)
	w.Release()
	if run.Halted() {
		return dstcRow{}, ctx.Err()
	}

	row := dstcRow{
		pre:      float64(pre.IOs),
		overhead: float64(reorg.IOs()),
		post:     float64(post.IOs),
		clusters: float64(reorg.Summary.Clusters),
		objPer:   reorg.Summary.MeanObjPerClus,
	}
	if post.IOs > 0 {
		row.gain = float64(pre.IOs) / float64(post.IOs)
		row.hasGain = true
	}
	return row, nil
}

// Run executes the DSTC experiment, parallelized like Experiment.Run.
func (e DSTCExperiment) Run() (*DSTCResult, error) { return e.RunContext(context.Background()) }

// RunContext is Run under a context, with the same cancellation and
// panic-isolation contract as Experiment.RunContext.
func (e DSTCExperiment) RunContext(ctx context.Context) (*DSTCResult, error) {
	if e.Replications < 1 {
		return nil, fmt.Errorf("core: Replications = %d", e.Replications)
	}
	if err := e.Params.Validate(); err != nil {
		return nil, err
	}
	conf := e.Confidence
	if conf == 0 {
		conf = 0.95
	}
	rows, err := runReplications(ctx, e.Replications, e.Workers, e.Pool,
		func(c *repContext, rep int) (dstcRow, error) { return e.runRep(ctx, c, rep) })
	if err != nil {
		return nil, err
	}
	res := &DSTCResult{Confidence: conf}
	for i := range rows {
		res.PreIOs.Add(rows[i].pre)
		res.OverheadIOs.Add(rows[i].overhead)
		res.PostIOs.Add(rows[i].post)
		if rows[i].hasGain {
			res.Gain.Add(rows[i].gain)
		}
		res.Clusters.Add(rows[i].clusters)
		res.ObjPerClus.Add(rows[i].objPer)
	}
	return res, nil
}
