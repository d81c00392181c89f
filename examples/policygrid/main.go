// Buffer-policy shootout: the PGREP × BUFFSIZE grid the paper's
// introduction gestures at ("adjust the parameters of a buffering
// technique") but the 1-D engine could not express — every Table 3
// replacement policy crossed with a range of buffer sizes, one declarative
// sweep, rendered as a heatmap. Small buffers separate the policies
// sharply (MRU and RANDOM resist the OCB mix's loops poorly); large
// buffers wash the choice out — the heatmap shows exactly where the policy
// decision stops mattering.
//
// The same study runs from the CLI:
//
//	go run ./cmd/experiments -sweep pgrep=all -sweep buffpages=64:256:64 \
//	    -metrics ios,hitpct -no 4000 -nc 20 -hotn 400 -reps 5 -chart
package main

import (
	"fmt"
	"log"

	"repro/voodb"
)

func main() {
	policies, err := voodb.ParseSweepAxis("pgrep=all") // every registered PGREP choice
	if err != nil {
		log.Fatal(err)
	}
	buffers, err := voodb.ParseSweepAxis("buffpages=64:256:64")
	if err != nil {
		log.Fatal(err)
	}

	params := voodb.DefaultWorkload()
	params.NC = 20
	params.NO = 4000
	params.HotN = 400

	cfg := voodb.DefaultConfig()
	cfg.System = voodb.PageServer

	res, err := voodb.RunSweep(voodb.Sweep{
		Name:    "policy-shootout",
		Title:   "buffer-policy shootout (PGREP × BUFFSIZE)",
		Config:  cfg,
		Params:  params,
		Axes:    voodb.Grid(policies, buffers),
		Metrics: []voodb.Metric{voodb.MetricIOs, voodb.MetricHitPct},
	}, voodb.SweepOptions{
		Replications: 5,
		Seed:         7,
		// The grid's axes never touch ocb.Generate, so every cell shares
		// one set of per-replication bases: 9 policies × 4 sizes reuse the
		// 5 generated databases instead of building 180.
		ShareBases: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, m := range []voodb.Metric{voodb.MetricIOs, voodb.MetricHitPct} {
		hm, err := res.Heatmap(m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(hm)
	}

	// Rank the policies at the tightest buffer (the leftmost heatmap
	// column), where replacement decisions dominate.
	fmt.Println("ranking at 64 pages (tightest buffer):")
	type row struct {
		policy string
		ios    float64
	}
	rows := make([]row, res.Shape[0])
	for i := range rows {
		pr := res.At(i, 0)
		ios, _ := pr.Get(voodb.MetricIOs)
		rows[i] = row{pr.Labels[0], ios.Mean}
	}
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].ios < rows[j-1].ios; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	for i, r := range rows {
		fmt.Printf("  %2d. %-7s %9.0f I/Os\n", i+1, r.policy, r.ios)
	}
}
