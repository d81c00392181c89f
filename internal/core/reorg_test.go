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
// queued on the disk. failures, when enabled, adds repairs to that queue.
func overlapRun(t *testing.T, users int, physical bool, failures FailureParams) *Run {
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
	cfg.Failures = failures
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
			r := overlapRun(t, users, physical, FailureParams{})
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
		}
	}
}

// TestOverlappingReorganizationsWithFailures pins overlapRun's batches
// with failures striking every 2,000 ms on average and 50 ms repairs, so
// repairs, reorganization I/O and transaction I/O all queue on the one
// disk controller.
func TestOverlappingReorganizationsWithFailures(t *testing.T) {
	want := map[string]string{
		"physical=false users=1": "tx=300 ab=0 rd=37924 wr=6029 io=43953 hit=3362 miss=26143 hr=0x1.d2b9de2dd449bp-04 el=0x1.381e40687d604p+19 mean=0x1.8d55ec8ccd1b5p+10 med=0x1.e48fe7e418p+09 p95=0x1.2dab725c05dbfp+12 tps=0x1.e09653420df47p-02 du=0x1.6ee24d6374ca4p-01 cu=0x0p+00 mo=0x1.7de8aa8c47fa4p-01 reorg=17810 fail=305/0x1.dd6d2493668bdp+13/14367",
		"physical=false users=2": "tx=300 ab=0 rd=33527 wr=4201 io=37728 hit=5723 miss=23782 hr=0x1.8d3ea2b8102c5p-03 el=0x1.b817e4fd2462ap+18 mean=0x1.f685170221293p+10 med=0x1.2ff4011f8828p+10 p95=0x1.8576e0029fe28p+12 tps=0x1.54d637c8d3459p-01 du=0x1.ef4e6176e8c72p-01 cu=0x0p+00 mo=0x1.568df568e4969p-01 reorg=23899 fail=208/0x1.2a7e5cde86428p+13/17445",
		"physical=false users=3": "tx=300 ab=0 rd=22430 wr=459 io=22889 hit=7808 miss=21697 hr=0x1.0efbfb97a39cep-02 el=0x1.189ef14b1e6e9p+18 mean=0x1.4848992e4c75p+11 med=0x1.966e18643b12p+10 p95=0x1.0bf9fd102e5f2p+13 tps=0x1.0b43b720bc267p+00 du=0x1.f904335ecfe72p-01 cu=0x0p+00 mo=0x1.d3f05f067d373p-01 reorg=3163 fail=135/0x1.5c3165de3d42ap+12/17509",
		"physical=true users=1":  "tx=300 ab=0 rd=1073935 wr=126846 io=1200781 hit=3412 miss=26093 hr=0x1.d9aad06d41227p-04 el=0x1.0b0c5e7d7e0a5p+21 mean=0x1.8d4f56bedda11p+10 med=0x1.eca32d755p+09 p95=0x1.2ab763e22558dp+12 tps=0x1.18d91a0aeb865p-03 du=0x1.d5270a7376df7p-01 cu=0x0p+00 mo=0x1.be55b9e7b9ff1p-03 reorg=1174688 fail=1007/0x1.8b2f297497805p+15/25417",
		"physical=true users=2":  "tx=300 ab=0 rd=218846 wr=39752 io=258598 hit=5865 miss=23640 hr=0x1.9719e63b16415p-03 el=0x1.d2326cde8f1aap+19 mean=0x1.f6b367901d5acp+10 med=0x1.344b5f15c8d08p+10 p95=0x1.9436d112d5c1bp+12 tps=0x1.41c09df74cffcp-02 du=0x1.f828b0d9d7c8ap-01 cu=0x0p+00 mo=0x1.437d8a09bd4a1p-02 reorg=445217 fail=466/0x1.626004691928ep+14/20248",
		"physical=true users=3":  "tx=300 ab=0 rd=23384 wr=1260 io=24644 hit=7658 miss=21847 hr=0x1.09c745e811fa5p-02 el=0x1.21c71febb25cp+18 mean=0x1.4b4d7f64d2bc6p+11 med=0x1.9b36f00804a4p+10 p95=0x1.02a8ce20d6c99p+13 tps=0x1.02d1a815d8092p+00 du=0x1.fb5f55166258ep-01 cu=0x0p+00 mo=0x1.c951d332d9695p-01 reorg=5959 fail=139/0x1.63a714091aa33p+12/17976",
	}
	for _, physical := range []bool{false, true} {
		for users := 1; users <= 3; users++ {
			r := overlapRun(t, users, physical, FailureParams{Enabled: true, MTBFMs: 2000, MeanRepairMs: 50})
			w := ocb.GenerateWorkload(r.db, 4)
			st := r.ExecuteBatch(w.Hot)
			fs := r.FailureStats()
			if fs.Failures == 0 || st.ReorgIOs == 0 {
				t.Fatalf("physical=%v users=%d: %d failures, %d reorganization I/Os; want both", physical, users, fs.Failures, st.ReorgIOs)
			}
			got := fmt.Sprintf("%s reorg=%d fail=%d/%s/%d",
				fingerprintBatch(st), st.ReorgIOs, fs.Failures, hexF(fs.DowntimeMs), fs.PagesDropped)
			key := fmt.Sprintf("physical=%v users=%d", physical, users)
			if got != want[key] {
				t.Errorf("%s diverged:\n got  %s\n want %s", key, got, want[key])
			}
		}
	}
}

// fixedClusters is a clustering policy whose every build returns the same
// clusters.
type fixedClusters struct {
	cluster.None
	clusters [][]ocb.OID
}

func (f fixedClusters) BuildClusters() [][]ocb.OID { return f.clusters }

// TestReorganizationsInFlightKeepTheirPageLists starts two
// reorganizations before the first has done any I/O and drains them
// together. Each must perform its own page lists, so the disk counts the
// reads and writes of the same two reorganizations drained one after the
// other.
func TestReorganizationsInFlightKeepTheirPageLists(t *testing.T) {
	for _, physical := range []bool{false, true} {
		ios := func(overlap bool) [2]uint64 {
			cfg := smallConfig()
			cfg.PhysicalOIDs = physical
			r, _ := mustRun(t, cfg, smallParams(), 5)
			// Objects 37 apart lie on distinct pages, so the first
			// reorganization reads more old pages than the second, which
			// reads back the first one's new pages.
			var cl []ocb.OID
			for o := 0; o < 600; o += 37 {
				cl = append(cl, ocb.OID(o))
			}
			r.clusterer = fixedClusters{clusters: [][]ocb.OID{cl}}
			calls := [2]int{}
			r.PerformClustering(func() { calls[0]++ })
			if !overlap {
				r.sim.Run()
			}
			r.PerformClustering(func() { calls[1]++ })
			r.sim.Run()
			if calls != [2]int{1, 1} {
				t.Fatalf("physical=%v overlap=%v: then callbacks ran %v times, want once each", physical, overlap, calls)
			}
			return [2]uint64{r.dsk.Reads(), r.dsk.Writes()}
		}
		if got, want := ios(true), ios(false); got != want {
			t.Errorf("physical=%v: overlapping reorganizations did %v reads/writes, one after the other %v", physical, got, want)
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
// reorganization scratch and the pooled executor's I/O list. What remains
// is ExecuteBatch's per-batch closures and occasional high-water growth
// when a replication's base outgrows every earlier one.
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
