package systems

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
)

func hexF(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// fingerprintBatch folds every metric of one batch into a comparable
// string (the same fields internal/core's golden tests pin).
func fingerprintBatch(st core.BatchStats) string {
	return fmt.Sprintf("tx=%d ab=%d rd=%d wr=%d io=%d hit=%d miss=%d hr=%s el=%s mean=%s med=%s p95=%s tps=%s du=%s cu=%s mo=%s",
		st.Transactions, st.Aborts, st.Reads, st.Writes, st.IOs, st.Hits, st.Misses,
		hexF(st.HitRatio), hexF(st.ElapsedMs), hexF(st.MeanRespMs), hexF(st.MedianRespMs),
		hexF(st.P95RespMs), hexF(st.ThroughputTPS), hexF(st.DiskUtilization),
		hexF(st.CPUUtilization), hexF(st.MPLOccupancy))
}

// dstcReplication runs one replication of the §4.4 protocol by hand: 1000
// depth-3 hierarchy traversals, a reorganization drained to completion,
// and a fresh draw of the same traversals. It returns the pre batch, the
// reorganization report with its cluster summary, and the post batch.
func dstcReplication(t *testing.T, cfg core.Config, seed uint64) [4]string {
	t.Helper()
	db, err := ocb.Generate(ocb.DSTCExperimentParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.NewRun(cfg, db, seed)
	if err != nil {
		t.Fatal(err)
	}
	pre := run.ExecuteBatch(ocb.GenerateHierarchyWorkload(db, seed+1, 1000, 3))
	run.PerformClustering(func() {})
	if drain := run.ExecuteBatch(nil); drain.Transactions != 0 {
		t.Fatalf("drain committed %d transactions", drain.Transactions)
	}
	rep := run.LastReorgReport()
	sum := run.LastClusterSummary()
	if rep.Summary != sum {
		t.Errorf("report summary %+v, last cluster summary %+v", rep.Summary, sum)
	}
	post := run.ExecuteBatch(ocb.GenerateHierarchyWorkload(db, seed+2, 1000, 3))
	return [4]string{
		fingerprintBatch(pre),
		fmt.Sprintf("rd=%d wr=%d el=%s", rep.ReadIOs, rep.WriteIOs, hexF(rep.ElapsedMs)),
		fmt.Sprintf("clusters=%d objs=%d mean=%s", sum.Clusters, sum.ObjectsInThem, hexF(sum.MeanObjPerClus)),
		fingerprintBatch(post),
	}
}

// TestGoldenDSTCProtocol pins one §4.4 replication bit for bit — the pre
// and post batches, the reorganization's I/Os and duration, and the
// cluster statistics — under Texas with physical OIDs (Table 6's
// measured column), Texas with logical OIDs (its simulated column), and
// the GreedyGraph baseline.
func TestGoldenDSTCProtocol(t *testing.T) {
	greedy := TexasDSTC()
	greedy.Clustering = core.GreedyGraph
	cases := []struct {
		name string
		cfg  core.Config
		want [4]string
	}{
		{"TexasDSTC", TexasDSTC(), [4]string{
			"tx=1000 ab=0 rd=1011 wr=0 io=1011 hit=18675 miss=1011 hr=0x1.e5b4a0bb428e3p-01 el=0x1.8dbf5c28f6e8ap+13 mean=0x1.974b1ee24483bp+03 med=0x1.47ae147afp-02 p95=0x1.e9c49ba5e39e6p+05 tps=0x1.3a450d1e608cp+06 du=0x1.f02979a3e1d83p-01 cu=0x1.fad0cb83c4fap-06 mo=0x1p+00",
			"rd=4618 wr=3480 el=0x1.6711999999a98p+13",
			"clusters=108 objs=1444 mean=0x1.abda12f684bdap+03",
			"tx=1000 ab=0 rd=338 wr=0 io=338 hit=19826 miss=338 hr=0x1.f76ae640b2c22p-01 el=0x1.e56c28f5c7658p+11 mean=0x1.f1129888fd558p+01 med=0x1.47ae147bp-02 p95=0x1.99d2f1a9fc53p+03 tps=0x1.0181f45fbc2a9p+08 du=0x1.cad47a1d1f6bdp-01 cu=0x1.a95c2f1704a19p-04 mo=0x1p+00",
		}},
		{"TexasLogicalOIDs", TexasLogicalOIDs(), [4]string{
			"tx=1000 ab=0 rd=1011 wr=0 io=1011 hit=18675 miss=1011 hr=0x1.e5b4a0bb428e3p-01 el=0x1.8dbf5c28f6e8ap+13 mean=0x1.974b1ee24483bp+03 med=0x1.47ae147afp-02 p95=0x1.e9c49ba5e39e6p+05 tps=0x1.3a450d1e608cp+06 du=0x1.f02979a3e1d83p-01 cu=0x1.fad0cb83c4fap-06 mo=0x1p+00",
			"rd=0 wr=312 el=0x1.4f6666666668p+07",
			"clusters=108 objs=1444 mean=0x1.abda12f684bdap+03",
			"tx=1000 ab=0 rd=338 wr=0 io=338 hit=19826 miss=338 hr=0x1.f76ae640b2c22p-01 el=0x1.e56c28f5c7658p+11 mean=0x1.f1129888fd558p+01 med=0x1.47ae147bp-02 p95=0x1.99d2f1a9fc53p+03 tps=0x1.0181f45fbc2a9p+08 du=0x1.cad47a1d1f6bdp-01 cu=0x1.a95c2f1704a19p-04 mo=0x1p+00",
		}},
		{"GreedyGraph", greedy, [4]string{
			"tx=1000 ab=0 rd=1011 wr=0 io=1011 hit=18675 miss=1011 hr=0x1.e5b4a0bb428e3p-01 el=0x1.8dbf5c28f6e8ap+13 mean=0x1.974b1ee24483bp+03 med=0x1.47ae147afp-02 p95=0x1.e9c49ba5e39e6p+05 tps=0x1.3a450d1e608cp+06 du=0x1.f02979a3e1d83p-01 cu=0x1.fad0cb83c4fap-06 mo=0x1p+00",
			"rd=4618 wr=3487 el=0x1.672d999999a98p+13",
			"clusters=100 objs=1449 mean=0x1.cfae147ae147bp+03",
			"tx=1000 ab=0 rd=332 wr=0 io=332 hit=19832 miss=332 hr=0x1.f791e6b5b4212p-01 el=0x1.f698f5c294338p+11 mean=0x1.015475a31cc66p+02 med=0x1.47ae147bp-02 p95=0x1.88000000004p+04 tps=0x1.f16a7a035b12bp+07 du=0x1.cca59dcddc332p-01 cu=0x1.9ad311911e671p-04 mo=0x1p+00",
		}},
	}
	labels := [4]string{"pre batch", "reorganization", "clusters", "post batch"}
	for _, c := range cases {
		got := dstcReplication(t, c.cfg, 1999)
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s %s diverged:\n got  %s\n want %s", c.name, labels[i], got[i], c.want[i])
			}
		}
	}
}
