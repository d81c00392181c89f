package experiments

import (
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/systems"
)

// hexF renders a float64 exactly (no rounding), so comparisons are
// bit-precise.
func hexF(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// hexInterval fingerprints every field of an interval exactly.
func hexInterval(ci stats.Interval) string {
	return hexF(ci.Mean) + "/" + hexF(ci.HalfWidth) + "/" + hexF(ci.Confidence) + "/" + strconv.Itoa(ci.N)
}

// legacyFig6 is a verbatim copy of the pre-refactor hardcoded Figure 6
// loop (the instanceSweep function the declarative spec replaced): one
// context pool for the sweep, points executed largest-NO-first, per-point
// seed o.Seed + NO. It returns the per-point aggregates, whose samples pin
// every metric interval of the spec's result.
func legacyFig6(t *testing.T, o sweep.Options) []*core.Result {
	t.Helper()
	cfg := systems.O2()
	pool := core.NewContextPool()
	results := make([]*core.Result, len(paper.InstanceCounts))
	for i := len(paper.InstanceCounts) - 1; i >= 0; i-- {
		no := paper.InstanceCounts[i]
		e := core.Experiment{
			Config:       cfg,
			Params:       table5Params(20, no),
			Seed:         o.Seed + uint64(no),
			Replications: o.Replications,
			Workers:      o.Workers,
			Pool:         pool,
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	return results
}

// TestDeclarativeFig6MatchesLegacy is the golden contract of the
// declarative refactor: the Fig6 spec run through the generic sweep engine
// must reproduce the pre-refactor hardcoded loop hex-exactly — every
// interval of its full metric vector, the I/O and hit-percentage intervals
// Table renders among them.
func TestDeclarativeFig6MatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep skipped in -short mode")
	}
	o := sweep.Options{Replications: 2, Seed: 1999}
	wantResults := legacyFig6(t, o)

	spec, err := Spec("fig6")
	if err != nil {
		t.Fatal(err)
	}
	// Every interval of every point must equal the Student-t interval over
	// the legacy run's samples.
	res, err := spec.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	samples := func(r *core.Result) map[sweep.Metric]*stats.Sample {
		return map[sweep.Metric]*stats.Sample{
			sweep.IOs:           &r.IOs,
			sweep.Reads:         &r.Reads,
			sweep.Writes:        &r.Writes,
			sweep.HitPct:        &r.HitRatio,
			sweep.RespMs:        &r.RespMs,
			sweep.ThroughputTPS: &r.Throughput,
			sweep.NetMessages:   &r.NetMessages,
			sweep.NetBytes:      &r.NetBytes,
			sweep.LockWaits:     &r.LockWaits,
			sweep.ReorgIOs:      &r.ReorgIOs,
			sweep.BypassRate:    &r.BypassRate,
		}
	}
	if len(res.Points) != len(wantResults) {
		t.Fatalf("sweep has %d points, want %d", len(res.Points), len(wantResults))
	}
	for i := range res.Points {
		byMetric := samples(wantResults[i])
		for _, v := range res.Points[i].Values {
			want := stats.ConfidenceInterval(byMetric[v.Metric], 0.95)
			if v.Metric == sweep.HitPct {
				want.Mean *= 100
				want.HalfWidth *= 100
			}
			if hexInterval(v.Interval) != hexInterval(want) {
				t.Errorf("point %d metric %s diverged:\n got  %s\n want %s",
					i, v.Metric, hexInterval(v.Interval), hexInterval(want))
			}
		}
		if len(res.Points[i].Values) != len(byMetric) {
			t.Errorf("point %d collected %d metrics, want %d", i, len(res.Points[i].Values), len(byMetric))
		}
	}
}
