package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ocb"
	"repro/internal/paper"
	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/systems"
)

// workload is one benchmark input: a fixed simulation configuration driven
// through the layers' public functions in a closed loop, one replication
// (or one sweep cell) per op.
type workload struct {
	name string
	why  string
	// window is the number of leading ops whose simulated outputs feed
	// sim_digest, the modelled-side counts and paper_err_pct. It is fixed
	// per workload, so those values depend on the seed alone, never on how
	// many ops the host managed within the time budget.
	window int
	// ref is the published value the window's mean is compared against
	// (paper_err_pct); 0 means the paper has no matching point.
	ref float64
	// newRunner builds the workload's state for one set-up. quick shrinks
	// every size for smoke tests.
	newRunner func(seed uint64, quick bool) runner
}

// runner runs a workload's ops. step runs the i-th unit of work — one
// replication, or one whole sweep — and returns its ops, each timed by the
// runner itself and closed on p. A failed output check is reported through
// opOut.bad, so the loop can count it and carry on.
type runner interface {
	step(i int, p *probe) ([]opOut, error)
	// warm runs op k on its own: the same work, and the same simulated
	// outputs, as the k-th op of the loop.
	warm(k int) (opOut, error)
}

// simOut is what one op computed in simulated terms. Every field is
// digested; a speed-only change must leave all of them bit-identical.
type simOut struct {
	Tx, Aborts     float64 // committed and wait-die-aborted transactions
	Reads, Writes  float64 // physical I/Os of the measured batches
	HitRatio       float64 // buffer hits over page requests
	LockWaits      float64 // lock requests that had to queue
	RespMs         float64 // mean simulated response time
	ElapsedMs      float64 // simulated duration of the measured batches
	OverheadIOs    float64 // §4.4 reorganization I/Os (dstc-reorg only)
	PreIOs, PostIO float64 // §4.4 usage before and after clustering
}

// opOut is one op's result: its host time, its simulated outputs, and the
// execution-schedule facts that are not part of the simulated results.
type opOut struct {
	hostMs   float64
	cal      int // index of the kernel run that followed the op
	sim      simOut
	bypass   float64 // share of events dispatched through the head slot
	calPeak  int     // pending-event high-water mark
	resident int64   // object-base resident bytes (-1 when not visible)
	bad      string  // first failed output check, empty when all passed
}

var workloads = []workload{
	{
		name:   "paper-o2",
		why:    "Fig. 6 headline point (O2, NC 20, NO 20000): single-user dispatch, LRU and shared locks; the calendar is idle",
		window: 40,
		ref:    refAt(paper.Fig6, 20000),
		newRunner: func(seed uint64, quick bool) runner {
			p := ocb.DefaultParams()
			p.NC, p.NO = 20, 20000
			if quick {
				p.NO, p.HotN = 2000, 100
			}
			return newCoreLoop(systems.O2(), p, false, seed)
		},
	},
	{
		name:   "texas-swap",
		why:    "Fig. 11 point at 12 MB: the base is 3.5x the buffer, so reservation-on-load and swap-out writes load the buffer layer",
		window: 20,
		ref:    refAt(paper.Fig11, 12),
		newRunner: func(seed uint64, quick bool) runner {
			p := ocb.DefaultParams()
			if quick {
				p.NO, p.HotN = 2000, 100
			}
			return newCoreLoop(systems.TexasWithMemory(12), p, false, seed)
		},
	},
	{
		name:   "mpl-contend",
		why:    "the one deep-calendar workload: 64 thinking users share MPL 8 with 0.2% updates, so wait-die conflicts and aborts occur",
		window: 20,
		newRunner: func(seed uint64, quick bool) runner {
			cfg := systems.O2()
			cfg.MPL, cfg.Users, cfg.ThinkTimeMs, cfg.BufferPages = 8, 64, 20, 2048
			p := ocb.DefaultParams()
			p.HotN, p.WriteProb = 500, 0.002
			if quick {
				p.NO, p.HotN = 2000, 50
			}
			return newCoreLoop(cfg, p, false, seed)
		},
	},
	{
		name:   "dstc-reorg",
		why:    "the paper's 4.4 protocol (Table 6): the only workload that builds clusters, reorganizes storage and fixes up physical OIDs",
		window: 40,
		ref:    paper.Table6[3].Simulated,
		newRunner: func(seed uint64, quick bool) runner {
			p := ocb.DSTCExperimentParams()
			if quick {
				p.NO = 2000
				p.ObjectLocality = p.NO
			}
			return newCoreLoop(systems.TexasDSTC(), p, true, seed)
		},
	},
	{
		name:   "stream-1m",
		why:    "a million-object streaming base: the v2 index, the derivation cache and residency carry the cost, not the object table",
		window: 10,
		newRunner: func(seed uint64, quick bool) runner {
			cfg := systems.O2()
			cfg.BufferPages = 2048
			p := ocb.DefaultParams()
			p.NO, p.HotRootCount, p.Layout = 1000000, 1000, ocb.LayoutStream
			if quick {
				p.NO, p.HotN = 20000, 100
			}
			return newCoreLoop(cfg, p, false, seed)
		},
	},
	{
		name:   "sweep-grid",
		why:    "an 80-cell policy x buffer-size grid: the sweep runner, the shared object-base cache and per-cell model rebuilds do the work",
		window: 80,
		newRunner: func(seed uint64, quick bool) runner {
			return newSweepGrid(seed, quick)
		},
	},
}

// lookup returns the named workload.
func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// refAt returns the paper's simulated value at x.
func refAt(s paper.Series, x int) float64 {
	for i, v := range s.X {
		if v == x {
			return s.Simulated[i]
		}
	}
	panic(fmt.Sprintf("paper series %q has no point %d", s.Label, x))
}

// dstcTransactions and dstcDepth are the §4.4 protocol's phase size and
// traversal depth (the paper's HOTN = 1000 depth-3 hierarchy traversals).
const (
	dstcTransactions = 1000
	dstcDepth        = 3
)

// coreLoop drives one replication per op exactly as core.Experiment (or
// core.DSTCExperiment) does on a single worker: the base is regenerated
// into a reused Database from the replication seed, the model is reset in
// place, and the workload is drawn from seed+1.
type coreLoop struct {
	cfg    core.Config
	params ocb.Params
	dstc   bool
	seed   uint64

	db  ocb.Database
	w   ocb.Workload
	run *core.Run
}

func newCoreLoop(cfg core.Config, p ocb.Params, dstc bool, seed uint64) *coreLoop {
	return &coreLoop{cfg: cfg, params: p, dstc: dstc, seed: seed}
}

func (c *coreLoop) warm(k int) (opOut, error) {
	out, err := c.step(k, nil)
	if err != nil {
		return opOut{}, err
	}
	return out[0], nil
}

func (c *coreLoop) step(i int, sp *probe) ([]opOut, error) {
	start := time.Now()
	seed := rng.SubSeed(c.seed, uint64(i))

	t := sp.start()
	if err := ocb.GenerateInto(&c.db, c.params, seed); err != nil {
		return nil, err
	}
	sp.stop("ocb.generate_ms", t)

	t = sp.start()
	if c.run == nil {
		run, err := core.NewRun(c.cfg, &c.db, seed)
		if err != nil {
			return nil, err
		}
		c.run = run
	} else {
		c.run.Reset(&c.db, seed)
	}
	sp.stop("core.build_ms", t)

	var out opOut
	if c.dstc {
		c.dstcOp(seed, sp, &out)
	} else {
		c.batchOp(seed, sp, &out)
	}
	out.calPeak = c.run.CalendarPeak()
	out.resident = c.db.ResidentBytes()
	out.hostMs = msSince(start)
	out.cal = sp.endOp()
	return []opOut{out}, nil
}

// batchOp is core.Experiment's replication body: the cold run unmeasured,
// then the measured hot run.
func (c *coreLoop) batchOp(seed uint64, sp *probe, out *opOut) {
	t := sp.start()
	c.w.GenerateInto(&c.db, seed+1)
	sp.stop("ocb.workload_ms", t)

	t = sp.start()
	if len(c.w.Cold) > 0 {
		c.run.ExecuteBatch(c.w.Cold)
	}
	st := c.run.ExecuteBatch(c.w.Hot)
	sp.stop("core.batch_ms", t)
	out.bad = checkBatch(st, len(c.w.Hot))
	c.w.Release()

	out.sim = simOut{
		Tx:        float64(st.Transactions),
		Aborts:    float64(st.Aborts),
		Reads:     float64(st.Reads),
		Writes:    float64(st.Writes),
		HitRatio:  st.HitRatio,
		LockWaits: float64(st.LockWaits),
		RespMs:    st.MeanRespMs,
		ElapsedMs: st.ElapsedMs,
	}
	out.bypass = st.BypassRate
}

// dstcOp is core.DSTCExperiment's replication body: characteristic
// traversals, a reorganization drained by an empty batch, and a fresh draw
// of the same traversals.
func (c *coreLoop) dstcOp(seed uint64, sp *probe, out *opOut) {
	phase := func(s uint64) core.BatchStats {
		t := sp.start()
		c.w.GenerateHierarchyInto(&c.db, s, dstcTransactions, dstcDepth)
		sp.stop("ocb.workload_ms", t)
		t = sp.start()
		st := c.run.ExecuteBatch(c.w.Hot)
		sp.stop("core.batch_ms", t)
		c.w.Release()
		return st
	}
	pre := phase(seed + 1)

	t := sp.start()
	c.run.PerformClustering(func() {})
	drain := c.run.ExecuteBatch(nil)
	sp.stop("cluster.reorg_ms", t)
	reorg := c.run.LastReorgReport()

	post := phase(seed + 2)

	out.bad = checkBatch(pre, dstcTransactions)
	if out.bad == "" {
		out.bad = checkBatch(post, dstcTransactions)
	}
	switch {
	case out.bad != "":
	case drain.Transactions != 0:
		out.bad = fmt.Sprintf("reorganization drain committed %d transactions", drain.Transactions)
	case post.IOs == 0:
		out.bad = "post-clustering batch did no I/O, so the gain is undefined"
	}

	out.sim = simOut{
		Tx:          float64(pre.Transactions + post.Transactions),
		Aborts:      float64(pre.Aborts + post.Aborts),
		Reads:       float64(pre.Reads + post.Reads),
		Writes:      float64(pre.Writes + post.Writes),
		HitRatio:    float64(pre.Hits+post.Hits) / float64(pre.Hits+pre.Misses+post.Hits+post.Misses),
		LockWaits:   float64(pre.LockWaits + post.LockWaits),
		RespMs:      (pre.MeanRespMs + post.MeanRespMs) / 2,
		ElapsedMs:   pre.ElapsedMs + post.ElapsedMs,
		OverheadIOs: float64(reorg.IOs()),
		PreIOs:      float64(pre.IOs),
		PostIO:      float64(post.IOs),
	}
	out.bypass = post.BypassRate
}

// checkBatch verifies one measured batch's outputs against the invariants
// every batch must satisfy.
func checkBatch(st core.BatchStats, want int) string {
	switch {
	case st.IOs != st.Reads+st.Writes:
		return fmt.Sprintf("IOs %d != reads %d + writes %d", st.IOs, st.Reads, st.Writes)
	case st.Transactions != uint64(want):
		return fmt.Sprintf("committed %d transactions, want %d", st.Transactions, want)
	case !(st.HitRatio >= 0 && st.HitRatio <= 1):
		return fmt.Sprintf("hit ratio %v outside [0,1]", st.HitRatio)
	}
	return ""
}

// sweepGrid runs one whole sweep per step; each cell is an op, timed from
// the previous cell's completion by the sweep's progress callback. The sweep
// runs cells one after another and reports each once its replications have
// all returned, so the callback's kernel run finds the workers idle.
type sweepGrid struct {
	spec sweep.Sweep
	opts sweep.Options
	reps int
}

// The sweep-grid study: five replacement policies against sixteen buffer
// sizes on the Texas preset, four replications per cell on one worker. Two
// workers would need both cores, and the host-speed kernel runs on one: a
// neighbour busy on one core slowed two-worker cells by 73% at the
// reference speed, and one-worker cells by 6% (see README.md).
const (
	sweepPolicies = "pgrep=LRU,FIFO,CLOCK,2Q,RANDOM"
	sweepBuffers  = "buffpages=64:1024:64"
	sweepReps     = 4
	sweepWorkers  = 1
)

func newSweepGrid(seed uint64, quick bool) *sweepGrid {
	p := ocb.DefaultParams()
	p.NO, p.HotN = 2000, 200
	buffers, reps := sweepBuffers, sweepReps
	if quick {
		p.NO, p.HotN = 500, 50
		buffers, reps = "buffpages=64:256:64", 2
	}
	pol, err := sweep.ParseAxis(sweepPolicies)
	if err != nil {
		panic(err)
	}
	buf, err := sweep.ParseAxis(buffers)
	if err != nil {
		panic(err)
	}
	return &sweepGrid{
		spec: sweep.Sweep{Name: "sweep-grid", Config: systems.Texas(), Params: p, Axes: sweep.Grid(pol, buf)},
		opts: sweep.Options{Replications: reps, Seed: seed, Workers: sweepWorkers, ShareBases: true, Pool: core.NewContextPool()},
		reps: reps,
	}
}

// stepSeed is sweep i's seed. Each sweep draws its own object bases (the
// grid shares one base per replication across its cells), so a run
// averages over many bases instead of hanging on the first sweep's four.
func (g *sweepGrid) stepSeed(i int) uint64 { return rng.SubSeed(g.opts.Seed, uint64(i)) }

// warm runs op k — cell k mod cells of sweep k / cells — as a one-cell
// sweep. A cell's streams come from its points' seed deltas and the sweep
// seed, never from its position, so the one-cell sweep computes exactly
// what the full grid computes there.
func (g *sweepGrid) warm(k int) (opOut, error) {
	one := g.spec
	one.Axes = nil
	for a := len(g.spec.Axes) - 1; a >= 0; a-- {
		ax := g.spec.Axes[a]
		i := k % len(ax.Points)
		k /= len(ax.Points)
		ax.Points = ax.Points[i : i+1]
		one.Axes = append([]sweep.Axis{ax}, one.Axes...)
	}
	o := g.opts
	o.Seed = g.stepSeed(k) // k is now the sweep index
	t := time.Now()
	res, err := one.Run(o)
	if err != nil {
		return opOut{}, err
	}
	out := g.cell(res, 0)
	out.hostMs = msSince(t)
	return out, nil
}

func (g *sweepGrid) step(i int, sp *probe) ([]opOut, error) {
	o := g.opts
	var cellMs []float64
	var cal []int
	last := time.Now()
	o.Progress = func(string) {
		ms := msSince(last)
		sp.add("sweep.cell_ms", ms)
		cellMs = append(cellMs, ms)
		cal = append(cal, sp.endOp())
		last = time.Now()
	}
	o.Seed = g.stepSeed(i)
	res, err := g.spec.Run(o)
	if err != nil {
		return nil, err
	}
	if len(cellMs) != len(res.Points) {
		return nil, fmt.Errorf("sweep reported %d cells for %d points", len(cellMs), len(res.Points))
	}
	outs := make([]opOut, len(res.Points))
	for k := range res.Points {
		outs[k] = g.cell(res, k)
		outs[k].hostMs = cellMs[k]
		outs[k].cal = cal[k]
	}
	return outs, nil
}

// cell converts one completed sweep cell into an op result and checks it.
func (g *sweepGrid) cell(res *sweep.Result, k int) opOut {
	pr := &res.Points[k]
	if pr.Status != sweep.CellCompleted || pr.Result == nil {
		return opOut{bad: fmt.Sprintf("cell %s: status %v", pr.Label, pr.Status), resident: -1}
	}
	r := pr.Result
	out := opOut{
		sim: simOut{
			Tx:        float64(g.reps * g.spec.Params.HotN),
			Aborts:    -1, // sweep results do not report aborts
			Reads:     r.Reads.Sum(),
			Writes:    r.Writes.Sum(),
			HitRatio:  r.HitRatio.Mean(),
			LockWaits: r.LockWaits.Sum(),
			RespMs:    r.RespMs.Mean(),
		},
		bypass:   r.BypassRate.Mean(),
		calPeak:  r.CalendarPeak,
		resident: -1,
	}
	switch {
	case r.IOs.N() != g.reps:
		out.bad = fmt.Sprintf("cell %s: %d replications, want %d", pr.Label, r.IOs.N(), g.reps)
	case math.Abs(r.IOs.Sum()-r.Reads.Sum()-r.Writes.Sum()) > 1e-9*r.IOs.Sum():
		out.bad = fmt.Sprintf("cell %s: IOs %v != reads %v + writes %v", pr.Label, r.IOs.Sum(), r.Reads.Sum(), r.Writes.Sum())
	case !(r.HitRatio.Min() >= 0 && r.HitRatio.Max() <= 1):
		out.bad = fmt.Sprintf("cell %s: hit ratio outside [0,1]", pr.Label)
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
