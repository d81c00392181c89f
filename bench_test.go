// Package repro_bench is the benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation section. Each benchmark
// regenerates its experiment (with a reduced replication count so the suite
// stays tractable — cmd/experiments runs the full protocol) and logs the
// series next to the paper's published values. The ios/point metric is the
// mean simulated I/O count at the experiment's headline point.
package repro_bench

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/paper"
	"repro/voodb"
)

const benchReps = 2

// opts returns the benchmark experiment options. FIG_WORKERS (used by
// scripts/bench.sh) overrides the replication worker count so the
// trajectory JSON can distinguish sequential from parallel points; results
// are bit-identical either way.
func opts() experiments.Options {
	o := experiments.Options{Replications: benchReps, Seed: 1999}
	if w, err := strconv.Atoi(os.Getenv("FIG_WORKERS")); err == nil && w >= 0 {
		o.Workers = w
	}
	return o
}

func benchFigure(b *testing.B, id string, ref paper.Series) {
	b.Helper()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure(id, opts())
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	logFigure(b, last, ref)
}

func logFigure(b *testing.B, fig *experiments.Figure, ref paper.Series) {
	b.Helper()
	for i, p := range fig.Points {
		b.Logf("%s x=%-6d paper(bench)=%-8.0f paper(sim)=%-8.0f ours=%.0f",
			fig.ID, p.X, ref.Benchmark[i], ref.Simulated[i], p.IOs.Mean)
	}
	head := fig.Points[len(fig.Points)-1]
	if fig.XLabel == "MB" {
		head = fig.Points[0] // smallest memory is the headline point
	}
	b.ReportMetric(head.IOs.Mean, "ios/point")
	b.ReportMetric(float64(fig.CalendarPeak), "peakcal")
	b.ReportMetric(fig.BypassRate, "bypass")
}

// BenchmarkLargeMPL is the large-scenario benchmark: one replication of a
// 100k-object base with 64 users at MPL 512, two orders of magnitude
// beyond the paper's protocol. MPL never binds here: the 64 users bound
// the in-flight transactions, so the calendar peaks at 64 pending events
// (peakcal), the same depth as the benchmark module's mpl-contend
// workload, and the head-slot register absorbs part of the dispatch
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

func BenchmarkFig6_O2Instances20(b *testing.B)    { benchFigure(b, "fig6", paper.Fig6) }
func BenchmarkFig7_O2Instances50(b *testing.B)    { benchFigure(b, "fig7", paper.Fig7) }
func BenchmarkFig8_O2CacheSize(b *testing.B)      { benchFigure(b, "fig8", paper.Fig8) }
func BenchmarkFig9_TexasInstances20(b *testing.B) { benchFigure(b, "fig9", paper.Fig9) }
func BenchmarkFig10_TexasInstances50(b *testing.B) {
	benchFigure(b, "fig10", paper.Fig10)
}
func BenchmarkFig11_TexasMemory(b *testing.B) { benchFigure(b, "fig11", paper.Fig11) }

func benchTable(b *testing.B, id string) {
	b.Helper()
	var last *experiments.TableResult
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.RunTable(id, opts())
		if err != nil {
			b.Fatal(err)
		}
		last = tbl
	}
	for _, r := range last.Rows {
		line := fmt.Sprintf("%s %-26s paper(bench)=%-9.2f paper(sim)=%-9.2f ours=%.2f",
			last.ID, r.Name, r.PaperBench, r.PaperSim, r.Ours.Mean)
		if r.HasAlt {
			line += fmt.Sprintf(" %s=%.2f", last.AltName, r.OursAlt.Mean)
		}
		b.Log(line)
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].Ours.Mean, "headline")
}

func BenchmarkTable6_DSTCMidBase(b *testing.B)   { benchTable(b, "table6") }
func BenchmarkTable7_DSTCClusters(b *testing.B)  { benchTable(b, "table7") }
func BenchmarkTable8_DSTCLargeBase(b *testing.B) { benchTable(b, "table8") }

// Ablation benches for the design choices DESIGN.md calls out.

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

// BenchmarkAblationPrefetch compares PREFETCH=None against OneAhead on a
// memory-constrained page server.
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, pf := range []voodb.PrefetchKind{voodb.NoPrefetch, voodb.OneAhead} {
		pf := pf
		b.Run(pf.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := systemsO2Small()
				cfg.Prefetch = pf
				ios := runOnce(b, cfg)
				b.ReportMetric(ios, "ios")
			}
		})
	}
}

// BenchmarkAblationPlacement compares the two INITPL policies on O₂.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, placement := range []string{"sequential", "optimized"} {
		placement := placement
		b.Run(placement, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := systemsO2Small()
				if placement == "sequential" {
					cfg.Placement = 0 // storage.Sequential
				}
				ios := runOnce(b, cfg)
				b.ReportMetric(ios, "ios")
			}
		})
	}
}
