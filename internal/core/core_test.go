package core

import (
	"math"
	"testing"

	"repro/internal/ocb"
)

// smallParams returns a workload small enough for fast unit tests.
func smallParams() ocb.Params {
	p := ocb.DefaultParams()
	p.NC = 10
	p.NO = 1000
	p.HotN = 60
	return p
}

// smallConfig returns a centralized configuration with a modest buffer.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.System = Centralized
	cfg.BufferPages = 64
	cfg.MPL = 1
	return cfg
}

func mustRun(t *testing.T, cfg Config, p ocb.Params, seed uint64) (*Run, *ocb.Database) {
	t.Helper()
	db, err := ocb.Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(cfg, db, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r, db
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	free := DefaultConfig()
	free.NetThroughputMBps = math.Inf(1)
	if err := free.Validate(); err != nil {
		t.Fatalf("free network (+Inf throughput) rejected: %v", err)
	}
	nan := math.NaN()
	cases := map[string]func(*Config){
		"system":     func(c *Config) { c.System = SystemClass(9) },
		"netthru":    func(c *Config) { c.NetThroughputMBps = 0 },
		"netlat":     func(c *Config) { c.NetLatencyMs = -1 },
		"pagesize":   func(c *Config) { c.PageSize = 8 },
		"buffer":     func(c *Config) { c.BufferPages = 0 },
		"policy":     func(c *Config) { c.BufferPolicy = "" },
		"disk":       func(c *Config) { c.DiskSeekMs = -1 },
		"mpl":        func(c *Config) { c.MPL = 0 },
		"locks":      func(c *Config) { c.GetLockMs = -1 },
		"users":      func(c *Config) { c.Users = 0 },
		"think":      func(c *Config) { c.ThinkTimeMs = -1 },
		"cpus":       func(c *Config) { c.ServerCPUs = 0 },
		"objcpu":     func(c *Config) { c.ObjectCPUMs = -1 },
		"overhead":   func(c *Config) { c.StorageOverhead = 0.5 },
		"dstcparams": func(c *Config) { c.Clustering = DSTC; c.DSTCParams.MinUsage = 0 },
		"greedysize": func(c *Config) { c.Clustering = GreedyGraph; c.DSTCParams.MaxClusterSize = 1 },
		"clustering": func(c *Config) { c.Clustering = ClusteringKind(9) },
		// NaN fails every comparison, so each float check must reject it
		// explicitly rather than through x < 0.
		"netthru-nan":  func(c *Config) { c.NetThroughputMBps = nan },
		"netlat-nan":   func(c *Config) { c.NetLatencyMs = nan },
		"seek-nan":     func(c *Config) { c.DiskSeekMs = nan },
		"latency-nan":  func(c *Config) { c.DiskLatencyMs = nan },
		"transfer-nan": func(c *Config) { c.DiskTransferMs = nan },
		"getlock-nan":  func(c *Config) { c.GetLockMs = nan },
		"rellock-nan":  func(c *Config) { c.RelLockMs = nan },
		"think-nan":    func(c *Config) { c.ThinkTimeMs = nan },
		"objcpu-nan":   func(c *Config) { c.ObjectCPUMs = nan },
		"overhead-nan": func(c *Config) { c.StorageOverhead = nan },
		"mtbf-nan":     func(c *Config) { c.Failures = FailureParams{Enabled: true, MTBFMs: nan} },
	}
	p := smallParams()
	p.NO = 200
	db, err := ocb.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
		// NewRun validates first, so it returns the error instead of
		// panicking in a substrate constructor.
		if _, err := NewRun(cfg, db, 1); err == nil {
			t.Errorf("%s: NewRun accepted an invalid config", name)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if Centralized.String() != "Centralized" || PageServer.String() != "Page Server" ||
		ObjectServer.String() != "Object Server" || DBServer.String() != "DB Server" {
		t.Error("SystemClass strings wrong")
	}
	if NoClustering.String() != "None" || DSTC.String() != "DSTC" || GreedyGraph.String() != "GreedyGraph" {
		t.Error("ClusteringKind strings wrong")
	}
	if NoPrefetch.String() != "None" || OneAhead.String() != "OneAhead" {
		t.Error("PrefetchKind strings wrong")
	}
	if SystemClass(9).String() == "" || ClusteringKind(9).String() == "" || PrefetchKind(9).String() == "" {
		t.Error("unknown enum values must still format")
	}
}

func TestBatchRunsAllTransactions(t *testing.T) {
	p := smallParams()
	r, db := mustRun(t, smallConfig(), p, 1)
	w := ocb.GenerateWorkload(db, 2)
	st := r.ExecuteBatch(w.Hot)
	if st.Transactions != uint64(p.HotN) {
		t.Fatalf("transactions = %d, want %d", st.Transactions, p.HotN)
	}
	if st.IOs != st.Reads+st.Writes {
		t.Fatalf("IOs %d ≠ reads %d + writes %d", st.IOs, st.Reads, st.Writes)
	}
	if st.IOs == 0 {
		t.Fatal("no I/O on a cold run")
	}
	if st.ElapsedMs <= 0 || st.MeanRespMs <= 0 || st.ThroughputTPS <= 0 {
		t.Fatalf("degenerate timing stats: %+v", st)
	}
	if st.HitRatio < 0 || st.HitRatio > 1 {
		t.Fatalf("hit ratio %v", st.HitRatio)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() BatchStats {
		r, db := mustRun(t, smallConfig(), smallParams(), 7)
		w := ocb.GenerateWorkload(db, 8)
		return r.ExecuteBatch(w.Hot)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seeds, different results:\n%+v\n%+v", a, b)
	}
}

func TestSmallerBufferMoreIOs(t *testing.T) {
	ios := func(pages int) uint64 {
		cfg := smallConfig()
		cfg.BufferPages = pages
		r, db := mustRun(t, cfg, smallParams(), 3)
		w := ocb.GenerateWorkload(db, 4)
		return r.ExecuteBatch(w.Hot).IOs
	}
	big, small := ios(4096), ios(16)
	if small <= big {
		t.Fatalf("16-page buffer (%d IOs) should beat 4096-page (%d IOs)… backwards", small, big)
	}
}

func TestWarmBufferFewerIOs(t *testing.T) {
	cfg := smallConfig()
	cfg.BufferPages = 4096 // everything fits
	r, db := mustRun(t, cfg, smallParams(), 5)
	w := ocb.GenerateWorkload(db, 6)
	cold := r.ExecuteBatch(w.Hot)
	warm := r.ExecuteBatch(w.Hot)
	if warm.IOs >= cold.IOs {
		t.Fatalf("warm run (%d IOs) not cheaper than cold (%d IOs)", warm.IOs, cold.IOs)
	}
	if warm.IOs != 0 {
		t.Fatalf("fully cached warm run should do 0 IOs, did %d", warm.IOs)
	}
}

func TestAllSystemClassesRun(t *testing.T) {
	for _, sys := range []SystemClass{Centralized, ObjectServer, PageServer, DBServer} {
		cfg := smallConfig()
		cfg.System = sys
		cfg.NetThroughputMBps = 1
		r, db := mustRun(t, cfg, smallParams(), 9)
		w := ocb.GenerateWorkload(db, 10)
		st := r.ExecuteBatch(w.Hot)
		if st.Transactions == 0 {
			t.Errorf("%v: no transactions completed", sys)
		}
	}
}

func TestNetworkAffectsTimeNotIOs(t *testing.T) {
	run := func(thru float64) BatchStats {
		cfg := smallConfig()
		cfg.System = PageServer
		cfg.NetThroughputMBps = thru
		r, db := mustRun(t, cfg, smallParams(), 11)
		w := ocb.GenerateWorkload(db, 12)
		return r.ExecuteBatch(w.Hot)
	}
	slow := run(0.1)
	free := run(math.Inf(1))
	if slow.IOs != free.IOs {
		t.Errorf("network speed changed I/O count: %d vs %d", slow.IOs, free.IOs)
	}
	if slow.MeanRespMs <= free.MeanRespMs {
		t.Errorf("0.1 MB/s response (%v) not slower than free (%v)", slow.MeanRespMs, free.MeanRespMs)
	}
}

func TestWriteWorkloadProducesWritebacks(t *testing.T) {
	p := smallParams()
	p.WriteProb = 0.5
	cfg := smallConfig()
	cfg.BufferPages = 16 // force dirty evictions
	r, db := mustRun(t, cfg, p, 13)
	w := ocb.GenerateWorkload(db, 14)
	st := r.ExecuteBatch(w.Hot)
	if st.Writes == 0 {
		t.Fatal("write workload under memory pressure produced no write I/Os")
	}
}

func TestReadOnlyNoWrites(t *testing.T) {
	cfg := smallConfig()
	cfg.BufferPages = 16
	r, db := mustRun(t, cfg, smallParams(), 15)
	w := ocb.GenerateWorkload(db, 16)
	st := r.ExecuteBatch(w.Hot)
	if st.Writes != 0 {
		t.Fatalf("read-only workload wrote %d pages", st.Writes)
	}
}

func TestSwizzleDirtyCausesWrites(t *testing.T) {
	cfg := smallConfig()
	cfg.BufferPages = 16
	cfg.SwizzleDirty = true
	r, db := mustRun(t, cfg, smallParams(), 17)
	w := ocb.GenerateWorkload(db, 18)
	st := r.ExecuteBatch(w.Hot)
	if st.Writes == 0 {
		t.Fatal("swizzle-dirty under pressure must swap out pages")
	}
}

func TestReserveOnLoadAmplifiesUnderPressure(t *testing.T) {
	run := func(reserve bool) uint64 {
		cfg := smallConfig()
		cfg.BufferPages = 24
		cfg.ReserveOnLoad = reserve
		cfg.SwizzleDirty = true
		r, db := mustRun(t, cfg, smallParams(), 19)
		w := ocb.GenerateWorkload(db, 20)
		return r.ExecuteBatch(w.Hot).IOs
	}
	plain, reserved := run(false), run(true)
	if reserved <= plain {
		t.Fatalf("reservation (%d IOs) should amplify over plain (%d IOs) under pressure", reserved, plain)
	}
}

func TestMultipleUsersAndMPL(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 4
	cfg.MPL = 2
	cfg.ThinkTimeMs = 1
	r, db := mustRun(t, cfg, smallParams(), 21)
	w := ocb.GenerateWorkload(db, 22)
	st := r.ExecuteBatch(w.Hot)
	if st.Transactions != uint64(len(w.Hot)) {
		t.Fatalf("transactions = %d, want %d", st.Transactions, len(w.Hot))
	}
}

// TestHugeMPLAllocatesOnDemand runs a model whose MPL no user population
// can reach. NewRun must size nothing by MPL: the event calendar grows on
// demand, so MPL 2³⁰ costs what MPL 4 costs (a calendar pre-sized to
// 4·MPL slots would abort the process with a runtime out-of-memory error,
// which no panic guard can catch). With MPL ≥ Users admission never
// binds, so the batch must also match MPL == Users exactly, apart from the
// occupancy ratio that MPL divides.
func TestHugeMPLAllocatesOnDemand(t *testing.T) {
	run := func(mpl int) BatchStats {
		cfg := smallConfig()
		cfg.Users = 4
		cfg.MPL = mpl
		cfg.ThinkTimeMs = 1
		r, db := mustRun(t, cfg, smallParams(), 31)
		w := ocb.GenerateWorkload(db, 32)
		st := r.ExecuteBatch(w.Hot)
		if st.Transactions != uint64(len(w.Hot)) {
			t.Fatalf("MPL %d: transactions = %d, want %d", mpl, st.Transactions, len(w.Hot))
		}
		st.MPLOccupancy = 0
		return st
	}
	if huge, bound := run(1<<30), run(4); huge != bound {
		t.Fatalf("MPL 2^30 diverged from MPL == Users:\n%+v\n%+v", huge, bound)
	}
}

func TestConflictingWritersComplete(t *testing.T) {
	// High write probability + concurrency: wait-die aborts may happen,
	// but every transaction must eventually commit.
	p := smallParams()
	p.NO = 200 // very hot object set → conflicts
	p.WriteProb = 0.6
	p.HotN = 40
	cfg := smallConfig()
	cfg.Users = 4
	cfg.MPL = 4
	cfg.BufferPages = 512
	r, db := mustRun(t, cfg, p, 23)
	w := ocb.GenerateWorkload(db, 24)
	st := r.ExecuteBatch(w.Hot)
	if st.Transactions != uint64(len(w.Hot)) {
		t.Fatalf("transactions = %d, want %d (aborts %d)", st.Transactions, len(w.Hot), st.Aborts)
	}
}

func TestPrefetchOneAhead(t *testing.T) {
	run := func(pf PrefetchKind) (uint64, float64) {
		cfg := smallConfig()
		cfg.Prefetch = pf
		// Small buffer: prefetched pages compete with the working set, so
		// the two policies must diverge measurably.
		cfg.BufferPages = 16
		r, db := mustRun(t, cfg, smallParams(), 25)
		w := ocb.GenerateWorkload(db, 26)
		st := r.ExecuteBatch(w.Hot)
		return st.IOs, st.HitRatio
	}
	noneIOs, _ := run(NoPrefetch)
	oneIOs, oneHit := run(OneAhead)
	if oneIOs == noneIOs {
		t.Error("prefetching changed nothing (suspicious)")
	}
	if oneHit <= 0 {
		t.Error("hit ratio degenerate with prefetch")
	}
}

func TestExperimentReplications(t *testing.T) {
	e := Experiment{Config: smallConfig(), Params: smallParams(), Seed: 31, Replications: 5}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IOs.N() != 5 {
		t.Fatalf("replications = %d", res.IOs.N())
	}
	ci := res.IOsCI()
	if ci.N != 5 || ci.Mean <= 0 {
		t.Fatalf("CI: %+v", ci)
	}
	if res.IOs.StdDev() == 0 {
		t.Error("replications identical — seeds not varied")
	}
	if _, err := (Experiment{Config: smallConfig(), Params: smallParams(), Replications: 0}).Run(); err == nil {
		t.Error("zero replications accepted")
	}
}

func TestDSTCExperimentImprovesIOs(t *testing.T) {
	p := ocb.DSTCExperimentParams()
	p.NC = 10
	p.NO = 2000
	p.HotRootCount = 30
	cfg := smallConfig()
	cfg.BufferPages = 4096
	cfg.Clustering = DSTC
	cfg.StorageOverhead = 1.05
	e := DSTCExperiment{Config: cfg, Params: p, Transactions: 200, Depth: 3, Seed: 33, Replications: 3}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PostIOs.Mean() >= res.PreIOs.Mean() {
		t.Fatalf("clustering did not help: pre %v post %v", res.PreIOs.Mean(), res.PostIOs.Mean())
	}
	if res.Gain.Mean() <= 1.2 {
		t.Fatalf("gain = %v, expected > 1.2", res.Gain.Mean())
	}
	if res.Clusters.Mean() <= 0 || res.ObjPerClus.Mean() < 2 {
		t.Fatalf("cluster stats: %v clusters, %v obj", res.Clusters.Mean(), res.ObjPerClus.Mean())
	}
	if res.OverheadIOs.Mean() <= 0 {
		t.Fatal("reorganization cost nothing")
	}
}

func TestPhysicalOIDsRaiseOverheadOnly(t *testing.T) {
	base := ocb.DSTCExperimentParams()
	base.NC = 10
	base.NO = 2000
	base.HotRootCount = 30
	run := func(phys bool) *DSTCResult {
		cfg := smallConfig()
		cfg.BufferPages = 4096
		cfg.Clustering = DSTC
		cfg.PhysicalOIDs = phys
		e := DSTCExperiment{Config: cfg, Params: base, Transactions: 200, Depth: 3, Seed: 35, Replications: 2}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	logical, physical := run(false), run(true)
	if physical.OverheadIOs.Mean() <= 2*logical.OverheadIOs.Mean() {
		t.Fatalf("physical OID overhead %v not ≫ logical %v (Table 6 effect)",
			physical.OverheadIOs.Mean(), logical.OverheadIOs.Mean())
	}
	if math.Abs(physical.PreIOs.Mean()-logical.PreIOs.Mean()) > 0.2*logical.PreIOs.Mean() {
		t.Errorf("usage phases should be hardly affected by OID mode: %v vs %v",
			physical.PreIOs.Mean(), logical.PreIOs.Mean())
	}
}

func TestAutomaticTrigger(t *testing.T) {
	p := ocb.DSTCExperimentParams()
	p.NC = 10
	p.NO = 2000
	p.HotRootCount = 20
	p.HotN = 150
	p.PSet, p.PSimple, p.PStoch = 0, 0, 0
	p.PHier = 1
	cfg := smallConfig()
	cfg.BufferPages = 4096
	cfg.Clustering = DSTC
	cfg.DSTCParams.TriggerCandidates = 50
	cfg.DSTCParams.ObservationPeriod = 20
	db, err := ocb.Generate(p, 37)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(cfg, db, 37)
	if err != nil {
		t.Fatal(err)
	}
	w := ocb.GenerateWorkload(db, 38)
	r.ExecuteBatch(w.Hot)
	if r.Store().Reorgs() == 0 {
		t.Fatal("automatic trigger never fired")
	}
	if r.LastClusterSummary().Clusters == 0 {
		t.Fatal("trigger fired but produced no clusters")
	}
}

func TestPerformClusteringWithNoPolicy(t *testing.T) {
	r, _ := mustRun(t, smallConfig(), smallParams(), 39)
	called := false
	r.PerformClustering(func() { called = true })
	if !called {
		t.Fatal("continuation not invoked")
	}
	if r.LastReorgReport().IOs() != 0 {
		t.Fatal("None policy reorganization cost I/O")
	}
}

func TestBufferInvalidatedAfterClustering(t *testing.T) {
	p := ocb.DSTCExperimentParams()
	p.NC = 10
	p.NO = 2000
	p.HotRootCount = 20
	cfg := smallConfig()
	cfg.BufferPages = 4096
	cfg.Clustering = DSTC
	db, err := ocb.Generate(p, 41)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(cfg, db, 41)
	if err != nil {
		t.Fatal(err)
	}
	r.ExecuteBatch(ocb.GenerateHierarchyWorkload(db, 42, 200, 3))
	if r.Buffer().Len() == 0 {
		t.Fatal("buffer empty after usage run")
	}
	r.PerformClustering(func() {})
	r.sim.Run()
	if r.Buffer().Len() != 0 {
		t.Fatalf("buffer holds %d stale pages after reorganization", r.Buffer().Len())
	}
}

func TestThinkTimeSlowsThroughput(t *testing.T) {
	run := func(think float64) float64 {
		cfg := smallConfig()
		cfg.ThinkTimeMs = think
		r, db := mustRun(t, cfg, smallParams(), 43)
		w := ocb.GenerateWorkload(db, 44)
		return r.ExecuteBatch(w.Hot).ThroughputTPS
	}
	fast, slow := run(0), run(100)
	if slow >= fast {
		t.Fatalf("think time did not slow throughput: %v vs %v", slow, fast)
	}
}

func TestLockCostsExtendResponse(t *testing.T) {
	run := func(lockMs float64) float64 {
		cfg := smallConfig()
		cfg.GetLockMs = lockMs
		cfg.RelLockMs = lockMs
		r, db := mustRun(t, cfg, smallParams(), 45)
		w := ocb.GenerateWorkload(db, 46)
		return r.ExecuteBatch(w.Hot).MeanRespMs
	}
	cheap, costly := run(0), run(2)
	if costly <= cheap {
		t.Fatalf("lock costs did not extend response time: %v vs %v", costly, cheap)
	}
}

func TestGreedyGraphClusteringRuns(t *testing.T) {
	p := ocb.DSTCExperimentParams()
	p.NC = 10
	p.NO = 1500
	p.HotRootCount = 25
	cfg := smallConfig()
	cfg.BufferPages = 4096
	cfg.Clustering = GreedyGraph
	e := DSTCExperiment{Config: cfg, Params: p, Transactions: 150, Depth: 3, Seed: 61, Replications: 2}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters.Mean() <= 0 {
		t.Fatal("greedy baseline built no clusters")
	}
	if res.PostIOs.Mean() >= res.PreIOs.Mean() {
		t.Errorf("greedy clustering did not help: pre %v post %v",
			res.PreIOs.Mean(), res.PostIOs.Mean())
	}
}

func TestResponsePercentiles(t *testing.T) {
	r, db := mustRun(t, smallConfig(), smallParams(), 63)
	w := ocb.GenerateWorkload(db, 64)
	st := r.ExecuteBatch(w.Hot)
	if st.MedianRespMs <= 0 || st.P95RespMs <= 0 {
		t.Fatalf("percentiles missing: %+v", st)
	}
	if st.P95RespMs < st.MedianRespMs {
		t.Fatalf("P95 (%v) below median (%v)", st.P95RespMs, st.MedianRespMs)
	}
	// The mean must lie within the distribution's range.
	if st.MeanRespMs <= 0 {
		t.Fatal("mean missing")
	}
}

func TestResourceUtilizations(t *testing.T) {
	cfg := smallConfig()
	cfg.BufferPages = 16 // plenty of disk traffic
	r, db := mustRun(t, cfg, smallParams(), 65)
	w := ocb.GenerateWorkload(db, 66)
	st := r.ExecuteBatch(w.Hot)
	if st.DiskUtilization <= 0 || st.DiskUtilization > 1 {
		t.Fatalf("disk utilization %v", st.DiskUtilization)
	}
	if st.CPUUtilization < 0 || st.CPUUtilization > 1 {
		t.Fatalf("cpu utilization %v", st.CPUUtilization)
	}
	if st.MPLOccupancy <= 0 || st.MPLOccupancy > 1 {
		t.Fatalf("MPL occupancy %v", st.MPLOccupancy)
	}
	// With one user and MPL 1, the transaction stream keeps the database
	// token busy nearly the whole time.
	if st.MPLOccupancy < 0.9 {
		t.Errorf("MPL occupancy %v, want ≈ 1 for a saturated single user", st.MPLOccupancy)
	}
}
