package core

import (
	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/netsim"
	"repro/internal/ocb"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Run is one instantiated VOODB model over one object base: the evaluation
// model obtained by translating the knowledge model (Table 2). A Run
// executes transaction batches and reorganizations and accumulates metrics;
// replications build a fresh Run each.
type Run struct {
	cfg Config

	sim   *sim.Simulation
	db    *ocb.Database
	store *storage.Store
	buf   *buffer.Manager
	dsk   *disk.Model
	net   *netsim.Model
	locks *lock.Manager

	// Passive resources (Table 1).
	diskRes   *sim.Resource // server disk controller
	serverCPU *sim.Resource // server processor(s)
	clientCPU *sim.Resource // client processor
	admission *sim.Resource // database scheduler (MULTILVL tokens)
	cpu       *sim.Resource // the processing CPU: clientCPU on a page server, serverCPU otherwise

	clusterer cluster.Policy
	failures  *failureInjector

	// reseeder is the buffer policy when it implements the optional
	// Reseed hook, nil otherwise. NewRun resolves it once, so Reset
	// asserts no interface per replication.
	reseeder buffer.Reseeder

	// execPool recycles executors (LIFO) — of transactions,
	// reorganizations and repairs alike — so steady-state execution
	// performs no per-transaction allocation.
	execPool []*txnExec

	// Counters (see also the substrate models' own counters).
	txDone      uint64
	txAborted   uint64
	respTotal   float64
	respDist    stats.Quantiles
	activeTx    int
	lastSummary cluster.Summary
	lastReorg   ReorgReport
	reorgIOs    uint64
}

// NewRun instantiates the model for db with cfg. The seed feeds the
// stochastic policies (e.g. the RANDOM buffer policy); the workload's own
// randomness lives in the transactions passed to ExecuteBatch.
func NewRun(cfg Config, db *ocb.Database, seed uint64) (*Run, error) {
	// A Base supplier may hand over any layout, so check the base itself.
	if err := ValidateRun(cfg, db.Params); err != nil {
		return nil, err
	}
	st, err := storage.New(db, storage.Config{
		PageSize:     cfg.PageSize,
		Overhead:     cfg.StorageOverhead,
		Placement:    cfg.Placement,
		PhysicalOIDs: cfg.PhysicalOIDs,
	})
	if err != nil {
		return nil, err
	}
	pol, err := buffer.NewPolicy(cfg.BufferPolicy, rng.NewStream(seed, 20), cfg.BufferPages)
	if err != nil {
		return nil, err
	}
	// The calendar is not pre-sized: its heap grows on demand to the
	// depth the model reaches (a pre-size from MPL would allocate for
	// transactions the user population can never admit), and Reset keeps
	// that capacity for later replications.
	s := sim.New()
	r := &Run{
		cfg:       cfg,
		sim:       s,
		db:        db,
		store:     st,
		buf:       buffer.New(cfg.BufferPages, pol),
		dsk:       disk.New(cfg.DiskSeekMs, cfg.DiskLatencyMs, cfg.DiskTransferMs),
		net:       netsim.New(cfg.NetThroughputMBps, cfg.NetLatencyMs),
		locks:     lock.NewManager(),
		diskRes:   sim.NewResource(s, "disk", 1),
		serverCPU: sim.NewResource(s, "serverCPU", cfg.ServerCPUs),
		clientCPU: sim.NewResource(s, "clientCPU", 1),
		admission: sim.NewResource(s, "database", cfg.MPL),
	}
	r.cpu = r.serverCPU
	if cfg.System == PageServer {
		r.cpu = r.clientCPU
	}
	r.buf.SetReserveCold(cfg.ReserveCold)
	r.buf.SizePages(st.NumPages())
	if cfg.Failures.Enabled {
		r.failures = newFailureInjector(r, cfg.Failures, rng.SubSeed(seed, 21))
	}
	switch cfg.Clustering {
	case DSTC:
		r.clusterer = cluster.NewDSTC(cfg.DSTCParams)
	case GreedyGraph:
		r.clusterer = cluster.NewGreedyGraph(2, cfg.DSTCParams.MaxClusterSize)
	default:
		r.clusterer = cluster.None{}
	}
	r.reseeder, _ = pol.(buffer.Reseeder)
	return r, nil
}

// Reset restores the Run to the state NewRun(r.Config(), db, seed) would
// produce, recycling every substrate's backing storage in place: the event
// calendar's heap, the passive resources, the buffer's frame table
// and policy structures, the lock table's pools, the store's placement
// tables, and the pooled transaction executors all keep their capacity.
// Following DESP-C++'s recycle-never-reallocate discipline, a second and
// later replication on a long-lived Run therefore allocates near-zero —
// and behaves bit-for-bit like a freshly built model (the golden tests pin
// this).
//
// The configuration is fixed at construction; callers that need a
// different Config must build a new Run.
func (r *Run) Reset(db *ocb.Database, seed uint64) {
	r.sim.Reset()
	r.db = db
	r.store.Reset(db)
	r.buf.Reset()
	r.buf.SizePages(r.store.NumPages())
	if r.reseeder != nil {
		// RANDOM's eviction draws must replay from the same stream a fresh
		// model would use (NewRun passes rng.NewStream(seed, 20)).
		r.reseeder.Reseed(rng.SubSeed(seed, 20))
	}
	r.dsk.Reset()
	r.net.ResetStats()
	r.locks.Reset()
	r.diskRes.Reset()
	r.serverCPU.Reset()
	r.clientCPU.Reset()
	r.admission.Reset()
	r.clusterer.Reset()
	if r.failures != nil {
		r.failures.reset(rng.SubSeed(seed, 21))
	}
	r.txDone, r.txAborted = 0, 0
	r.respTotal = 0
	r.respDist.Reset()
	r.activeTx = 0
	r.lastSummary = cluster.Summary{}
	r.lastReorg = ReorgReport{}
	r.reorgIOs = 0
}

// Config returns the configuration.
func (r *Run) Config() Config { return r.cfg }

// Store exposes the object store (for inspection in tests and reports).
func (r *Run) Store() *storage.Store { return r.store }

// Buffer exposes the buffer manager.
func (r *Run) Buffer() *buffer.Manager { return r.buf }

// Disk exposes the disk model.
func (r *Run) Disk() *disk.Model { return r.dsk }

// Clusterer exposes the clustering policy.
func (r *Run) Clusterer() cluster.Policy { return r.clusterer }

// Now returns the current simulated time (ms).
func (r *Run) Now() float64 { return r.sim.Now() }

// CalendarPeak returns the high-water mark of pending events since the
// run's last Reset — the calendar depth this workload actually exercised.
func (r *Run) CalendarPeak() int { return r.sim.PeakPending() }

// SetStopCheck installs a cooperative halt hook on the run's simulation
// kernel: ExecuteBatch (and any other drain of the calendar) polls check
// at the kernel's coarse StopCheckInterval and stops early when it returns
// true. This is how experiment-level cancellation and per-cell deadlines
// interrupt a replication mid-simulation with zero per-event cost. A
// halted run's state is mid-flight — check Halted after a batch and
// discard the replication. Run.Reset (via sim.Reset) clears the hook.
func (r *Run) SetStopCheck(check func() bool) { r.sim.SetStopCheck(check) }

// Halted reports whether the last batch stopped early on the stop check
// rather than running to completion.
func (r *Run) Halted() bool { return r.sim.Halted() }

// LastClusterSummary returns the Table 7 statistics of the most recent
// reorganization.
func (r *Run) LastClusterSummary() cluster.Summary { return r.lastSummary }

// BatchStats reports what one ExecuteBatch did.
type BatchStats struct {
	Transactions  uint64
	Aborts        uint64
	Reads         uint64
	Writes        uint64
	IOs           uint64
	Hits          uint64
	Misses        uint64
	HitRatio      float64
	ElapsedMs     float64
	MeanRespMs    float64
	MedianRespMs  float64
	P95RespMs     float64
	ThroughputTPS float64

	// Passive-resource utilizations over the batch (Table 1 resources).
	DiskUtilization float64
	CPUUtilization  float64
	MPLOccupancy    float64

	// Substrate counters over the batch: client–server network traffic
	// (zero for Centralized systems), lock requests that had to queue, and
	// I/Os spent in reorganizations triggered during the batch (Figure 4's
	// automatic triggering; zero without a Clustering Manager).
	NetMessages uint64
	NetBytes    uint64
	LockWaits   uint64
	ReorgIOs    uint64

	// BypassRate is the fraction of executed events that bypassed the
	// kernel's calendar, continued in place by sim.Advance, accumulated
	// over the replication so far. It describes the execution schedule
	// (firing order is the same either way), so it is excluded from golden
	// fingerprints.
	BypassRate float64
}

// ExecuteBatch runs the given transactions to completion: cfg.Users user
// processes pull transactions from the stream, each submitting through the
// MULTILVL admission scheduler, with think time between transactions. It
// returns the metrics accumulated during this batch only.
func (r *Run) ExecuteBatch(txs []ocb.Transaction) BatchStats {
	startReads, startWrites := r.dsk.Reads(), r.dsk.Writes()
	startHits, startMisses := r.buf.Hits(), r.buf.Misses()
	startDone, startAborted := r.txDone, r.txAborted
	startMsgs, startBytes := r.net.Messages(), r.net.Bytes()
	startWaits := r.locks.Waits()
	startReorg := r.reorgIOs
	startResp := r.respTotal
	startTime := r.sim.Now()
	r.respDist.Reset()
	r.diskRes.ResetStats()
	r.serverCPU.ResetStats()
	r.clientCPU.ResetStats()
	r.admission.ResetStats()

	next := 0
	var user func()
	// thinkThenNext is the commit continuation of every transaction,
	// hoisted out of the user loop so submission allocates nothing per
	// transaction.
	thinkThenNext := func() {
		if r.cfg.ThinkTimeMs <= 0 {
			user()
			return
		}
		r.sim.Schedule(r.cfg.ThinkTimeMs, user)
	}
	user = func() {
		if next >= len(txs) {
			return
		}
		// Automatic triggering (Figure 4): a reorganization demanded by
		// the Clustering Manager runs when the database is quiescent.
		if r.activeTx == 0 && r.clusterer.ShouldTrigger() {
			r.PerformClustering(user)
			return
		}
		tx := &txs[next]
		next++
		r.submit(tx, thinkThenNext)
	}
	users := r.cfg.Users
	if users > len(txs) {
		users = len(txs)
	}
	for i := 0; i < users; i++ {
		r.sim.Schedule(0, user)
	}
	if r.failures != nil {
		r.failures.workRemaining = func() bool {
			return next < len(txs) || r.activeTx > 0
		}
		r.failures.arm()
	}
	r.sim.Run()

	done := r.txDone - startDone
	elapsed := r.sim.Now() - startTime
	st := BatchStats{
		Transactions: done,
		Aborts:       r.txAborted - startAborted,
		Reads:        r.dsk.Reads() - startReads,
		Writes:       r.dsk.Writes() - startWrites,
		Hits:         r.buf.Hits() - startHits,
		Misses:       r.buf.Misses() - startMisses,
		ElapsedMs:    elapsed,
		NetMessages:  r.net.Messages() - startMsgs,
		NetBytes:     r.net.Bytes() - startBytes,
		LockWaits:    r.locks.Waits() - startWaits,
		ReorgIOs:     r.reorgIOs - startReorg,
	}
	st.IOs = st.Reads + st.Writes
	if st.Hits+st.Misses > 0 {
		st.HitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	if done > 0 {
		st.MeanRespMs = (r.respTotal - startResp) / float64(done)
	}
	if r.respDist.N() > 0 {
		st.MedianRespMs = r.respDist.Median()
		st.P95RespMs = r.respDist.At(0.95)
	}
	if elapsed > 0 {
		st.ThroughputTPS = float64(done) * 1000 / elapsed
	}
	st.DiskUtilization = r.diskRes.Utilization()
	st.CPUUtilization = r.serverCPU.Utilization()
	st.MPLOccupancy = r.admission.Utilization()
	st.BypassRate = r.sim.BypassRate()
	return st
}
