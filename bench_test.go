// Package repro_bench holds the figure-level benchmarks that
// scripts/bench.sh records (Fig. 6, a large multi-user base, a
// million-object streaming base) and the ablations of the switches no
// registry row sets. BenchmarkFig6 regenerates its figure with a reduced
// replication count; cmd/experiments -run runs every figure and table.
package repro_bench

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/voodb"
)

const benchReps = 2

// opts returns the benchmark experiment options. FIG_WORKERS (used by
// scripts/bench.sh) overrides the replication worker count so the
// trajectory JSON can distinguish sequential from parallel points; results
// are bit-identical either way.
func opts() sweep.Options {
	o := sweep.Options{Replications: benchReps, Seed: 1999}
	if w, err := strconv.Atoi(os.Getenv("FIG_WORKERS")); err == nil && w >= 0 {
		o.Workers = w
	}
	return o
}

// BenchmarkFig6_O2Instances20 regenerates Fig. 6 b.N times and logs the
// last result beside the paper's values; any failed cell fails the
// benchmark. It reports the headline (NO 20000) I/O mean, the
// event-calendar high-water mark over every point and replication
// (peakcal) and the mean bypass rate over the points (bypass: the share of
// events continued in place instead of through the calendar). Like
// peakcal, bypass describes the execution schedule, never the simulated
// results.
func BenchmarkFig6_O2Instances20(b *testing.B) {
	var res *sweep.Result
	for i := 0; i < b.N; i++ {
		s, err := experiments.Spec("fig6")
		if err != nil {
			b.Fatal(err)
		}
		if res, err = s.RunContext(context.Background(), opts()); err != nil {
			b.Fatal(err)
		}
		if len(res.Failures) > 0 {
			b.Fatal(res.Failures[0])
		}
	}
	tbl, err := experiments.Table(res)
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + tbl.String())
	ios, _ := res.Points[len(res.Points)-1].Get(sweep.IOs)
	peak, bypass := 0, 0.0
	for i := range res.Points {
		r := res.Points[i].Result
		if r.CalendarPeak > peak {
			peak = r.CalendarPeak
		}
		bypass += r.BypassRate.Mean()
	}
	b.ReportMetric(ios.Mean, "ios/point")
	b.ReportMetric(float64(peak), "peakcal")
	b.ReportMetric(bypass/float64(len(res.Points)), "bypass")
}

// BenchmarkLargeMPL is the large-scenario benchmark: one replication of a
// 100k-object base with 64 users at MPL 512, two orders of magnitude
// beyond the paper's protocol. MPL never binds here: the 64 users bound
// the in-flight transactions, so the calendar peaks at 64 pending events
// (peakcal), the same depth as the benchmark module's mpl-contend
// workload, and transactions continue in place for part of the dispatch
// (bypass). It measures a large object base under a multi-user load, not
// a deep calendar.
func BenchmarkLargeMPL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := voodb.O2()
		cfg.MPL = 512
		cfg.Users = 64
		cfg.BufferPages = 2048
		params := voodb.DefaultWorkload()
		params.NC = 50
		params.NO = 100_000
		params.HotN = 2000
		res, err := voodb.Experiment{
			Config: cfg, Params: params, Seed: 3, Replications: 1,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IOs.Mean(), "ios")
		b.ReportMetric(float64(res.CalendarPeak), "peakcal")
		b.ReportMetric(res.BypassRate.Mean(), "bypass")
	}
}

// BenchmarkStreamMillionObjects is the tentpole's headline run: a Fig6-style
// O₂ experiment on a 1,000,000-object base, eager-v2 versus streaming
// layout. Both produce bit-identical simulated results (pinned by
// TestLargeStreamingSmoke); the series tracks end-to-end time plus the
// resident object-base footprint (dbbytes, bytes/obj) — eager-v2 carries
// tens of MB, streaming a few hundred KB regardless of NO.
func BenchmarkStreamMillionObjects(b *testing.B) {
	layouts := []struct {
		name   string
		layout voodb.Layout
	}{{"eagerv2", voodb.LayoutEagerV2}, {"stream", voodb.LayoutStream}}
	for _, l := range layouts {
		b.Run(l.name, func(b *testing.B) {
			cfg := voodb.O2()
			cfg.BufferPages = 2048
			params := voodb.DefaultWorkload()
			params.NC = 50
			params.NO = 1_000_000
			params.HotN = 500
			params.HotRootCount = 1000
			params.Layout = l.layout
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := voodb.Experiment{
					Config: cfg, Params: params, Seed: 3, Replications: 1,
				}.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.IOs.Mean(), "ios")
			}
			b.StopTimer()
			db, err := voodb.GenerateDatabase(params, 3)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(db.ResidentBytes()), "dbbytes")
			b.ReportMetric(float64(db.ResidentBytes())/float64(params.NO), "bytes/obj")
		})
	}
}

// The ablations below study switches that no registry row sets yet
// (reservation-on-load, swizzle-dirty pages) and the clustering modules
// under the DSTC protocol, which no command line runs with a user-defined
// configuration.

// BenchmarkAblationReservation isolates the reservation-on-load mechanism
// at 8 MB. Reservations are run hot (ReserveCold off) so the reserved
// frames genuinely compete with the working set; in the calibrated Texas
// preset they insert cold and the Figure 11 blow-up is carried by capacity
// misses plus swizzle-dirty swap-outs instead (see EXPERIMENTS.md).
func BenchmarkAblationReservation(b *testing.B) {
	for _, reserve := range []bool{false, true} {
		reserve := reserve
		b.Run(fmt.Sprintf("reserve=%v", reserve), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := systemsTexas8MB()
				cfg.ReserveOnLoad = reserve
				cfg.ReserveCold = false
				ios := runOnce(b, cfg)
				b.ReportMetric(ios, "ios")
			}
		})
	}
}

// BenchmarkAblationSwizzleDirty isolates swizzle-dirty swap-out writes.
func BenchmarkAblationSwizzleDirty(b *testing.B) {
	for _, dirty := range []bool{false, true} {
		dirty := dirty
		b.Run(fmt.Sprintf("swizzle=%v", dirty), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := systemsTexas8MB()
				cfg.SwizzleDirty = dirty
				ios := runOnce(b, cfg)
				b.ReportMetric(ios, "ios")
			}
		})
	}
}

// BenchmarkAblationClustering compares the DSTC module against the greedy
// graph baseline on the §4.4 protocol (gain as the reported metric).
func BenchmarkAblationClustering(b *testing.B) {
	for _, kind := range []voodb.ClusteringKind{voodb.DSTC, voodb.GreedyGraph} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := voodb.TexasLogicalOIDs()
				cfg.Clustering = kind
				res, err := voodb.DSTCExperiment{
					Config: cfg, Params: voodb.DSTCWorkload(),
					Transactions: 1000, Depth: 3, Seed: 5, Replications: 1,
				}.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Gain.Mean(), "gain")
				b.ReportMetric(res.OverheadIOs.Mean(), "overheadIOs")
			}
		})
	}
}
