package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ocb"
)

// overlapRun triggers a reorganization after nearly every transaction:
// DSTC with one-transaction periods arms as soon as one object was
// accessed, and the 256-frame buffer makes every reorganization read. With
// several users one of them can commit a new period's transactions and
// start the next reorganization while the previous one's I/O is still
// queued on the disk.
func overlapRun(t *testing.T, users int, physical bool) *Run {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Clustering = DSTC
	cfg.DSTCParams = cluster.DSTCParams{
		ObservationPeriod: 1,
		MinUsage:          1,
		MinLink:           1,
		MaxClusterSize:    32,
		TriggerCandidates: 1,
	}
	cfg.PhysicalOIDs = physical
	cfg.BufferPages = 256
	cfg.Users = users
	cfg.MPL = users
	cfg.ThinkTimeMs = 100
	p := ocb.DefaultParams()
	p.NO = 4000
	p.NC = 20
	p.HotN = 300
	r, _ := mustRun(t, cfg, p, 3)
	return r
}

// TestOverlappingReorganizations pins batches whose automatic
// reorganizations overlap: each reorganization in flight must keep its own
// page lists and I/O position while the next one rebuilds the clusters
// and the store.
func TestOverlappingReorganizations(t *testing.T) {
	want := map[string]string{
		"physical=false users=1": "tx=300 ab=0 rd=25873 wr=6029 io=31902 hit=4147 miss=25358 hr=0x1.1fd9f6559a30ap-03 el=0x1.e7cc91eb87b8ap+18 mean=0x1.7d2358564c32p+10 med=0x1.b3753f7cf0ap+09 p95=0x1.1542e3bcd701fp+12 tps=0x1.3380eea479a17p-01 du=0x1.468d38bc2be62p-01 cu=0x0p+00 mo=0x1.d4ce2cf523342p-01 reorg=6544 last=0/5/0x1.c666666668p+03 clusters=1/25/0x1.9p+04",
		"physical=false users=2": "tx=300 ab=0 rd=26342 wr=3826 io=30168 hit=8861 miss=20644 hr=0x1.33879adde487cp-02 el=0x1.5d8ca72b02ed4p+18 mean=0x1.b276ff892a6fcp+10 med=0x1.18a000000076p+10 p95=0x1.492f35a85846cp+12 tps=0x1.ad1fb58111719p-01 du=0x1.e438be1beca33p-01 cu=0x0p+00 mo=0x1.74e0e2a55e30cp-01 reorg=15854 last=96/9/0x1.2eb33333347p+10 clusters=2/51/0x1.98p+04",
		"physical=false users=3": "tx=300 ab=0 rd=19694 wr=1625 io=21319 hit=11796 miss=17709 hr=0x1.99644aa70ea79p-02 el=0x1.f5c73f7cee4e5p+17 mean=0x1.08c46499072fdp+11 med=0x1.3c19374bc6f6p+10 p95=0x1.9fb7055325a0cp+12 tps=0x1.2aefd1ba07d6bp+00 du=0x1.f989fb1403805p-01 cu=0x0p+00 mo=0x1.a62048db88119p-01 reorg=9120 last=2674/756/0x1.3d530000014c8p+15 clusters=5/128/0x1.999999999999ap+04",
		"physical=true users=1":  "tx=300 ab=0 rd=1062742 wr=126846 io=1189588 hit=4147 miss=25358 hr=0x1.1fd9f6559a30ap-03 el=0x1.ec71047add3dfp+20 mean=0x1.7d2358564563dp+10 med=0x1.b3753f7cf0528p+09 p95=0x1.1542e3bcca5f5p+12 tps=0x1.309acf43975d2p-03 du=0x1.d21331d50408fp-01 cu=0x0p+00 mo=0x1.d062c55e0056cp-03 reorg=1164230 last=6828/121/0x1.26ab333331ep+12 clusters=1/25/0x1.9p+04",
		"physical=true users=2":  "tx=300 ab=0 rd=282532 wr=49804 io=332336 hit=8483 miss=21022 hr=0x1.26692d2db2f85p-02 el=0x1.f79ee687288c1p+19 mean=0x1.bff982a990abcp+10 med=0x1.21c0e5603ffp+10 p95=0x1.54100902d9b7fp+12 tps=0x1.29d7dba507069p-02 du=0x1.f761e8527b015p-01 cu=0x0p+00 mo=0x1.0ada3709917a8p-02 reorg=599561 last=39623/4091/0x1.1f62fffffc8cp+16 clusters=1/25/0x1.9p+04",
		"physical=true users=3":  "tx=300 ab=0 rd=97619 wr=25594 io=123213 hit=10608 miss=18897 hr=0x1.70293b0f97773p-02 el=0x1.2fc6cba5e34b2p+19 mean=0x1.24d3f4f7d615ep+11 med=0x1.61fba5e3558p+10 p95=0x1.d5cc0000016efp+12 tps=0x1.edc8b4c5c092ep-02 du=0x1.fe3e7a26fc205p-01 cu=0x0p+00 mo=0x1.8195577764b77p-02 reorg=283584 last=18489/5678/0x1.69d5af1a9ad48p+16 clusters=2/50/0x1.9p+04",
	}
	for _, physical := range []bool{false, true} {
		for users := 1; users <= 3; users++ {
			r := overlapRun(t, users, physical)
			w := ocb.GenerateWorkload(r.db, 4)
			st := r.ExecuteBatch(w.Hot)
			rep := r.LastReorgReport()
			got := fmt.Sprintf("%s reorg=%d last=%d/%d/%s clusters=%d/%d/%s",
				fingerprintBatch(st), st.ReorgIOs, rep.ReadIOs, rep.WriteIOs, hexF(rep.ElapsedMs),
				rep.Summary.Clusters, rep.Summary.ObjectsInThem, hexF(rep.Summary.MeanObjPerClus))
			key := fmt.Sprintf("physical=%v users=%d", physical, users)
			if got != want[key] {
				t.Errorf("%s diverged:\n got  %s\n want %s", key, got, want[key])
			}
			// The executor pool holds as many executors as there were
			// reorganizations in flight at once: one per user here.
			if n := len(r.reorgPool); n != users {
				t.Errorf("%s: %d reorganizations in flight at most, want %d", key, n, users)
			}
		}
	}
}

// texasDSTCConfig copies systems.TexasDSTC, the §4.4 configuration
// (internal/systems imports core, so core's tests cannot import it).
func texasDSTCConfig() Config {
	cfg := DefaultConfig()
	cfg.System = Centralized
	cfg.NetThroughputMBps = math.Inf(1)
	cfg.BufferPages = (64 - 6) * 256
	cfg.DiskSeekMs = 7.4
	cfg.DiskLatencyMs = 4.3
	cfg.DiskTransferMs = 0.5
	cfg.MPL = 1
	cfg.GetLockMs = 0
	cfg.RelLockMs = 0
	cfg.StorageOverhead = 1.05
	cfg.PhysicalOIDs = true
	cfg.ReserveOnLoad = true
	cfg.ReserveCold = true
	cfg.SwizzleDirty = true
	cfg.Clustering = DSTC
	return cfg
}

// TestWarmDSTCReplicationAllocs gates the clustering path's allocations: a
// warm §4.4 replication (regenerate the base, reset the model, 1000
// depth-3 traversals, a reorganization drained to completion, then 1000
// more) recycles the link table, the cluster scratch, the store's
// reorganization scratch and the pooled I/O executor. What remains is
// ExecuteBatch's per-batch closures and occasional high-water growth when
// a replication's base outgrows every earlier one.
func TestWarmDSTCReplicationAllocs(t *testing.T) {
	e := DSTCExperiment{
		Config:       texasDSTCConfig(),
		Params:       ocb.DSTCExperimentParams(),
		Transactions: 1000,
		Depth:        3,
		Seed:         1999,
		Replications: 64,
		Workers:      1,
	}
	c := &repContext{}
	for rep := 0; rep < 3; rep++ {
		if _, err := e.runRep(context.Background(), c, rep); err != nil {
			t.Fatal(err)
		}
	}
	rep := 3
	allocs := testing.AllocsPerRun(4, func() {
		row, err := e.runRep(context.Background(), c, rep)
		if err != nil {
			t.Fatal(err)
		}
		if row.overhead == 0 {
			t.Fatal("the replication did no reorganization I/O")
		}
		rep++
	})
	t.Logf("warm §4.4 replication: %v allocations", allocs)
	if allocs > 32 {
		t.Errorf("warm §4.4 replication performed %v allocations, want ≤ 32", allocs)
	}
}
