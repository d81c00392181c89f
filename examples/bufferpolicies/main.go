// Buffer-policy study: sweep every PGREP replacement policy (Table 3's
// RANDOM, FIFO, LFU, LRU, LRU-2, CLOCK and GCLOCK, plus MRU and 2Q) over
// the same OCB workload on a memory-constrained page server, and rank them
// by mean I/Os — the kind of "adjust the parameters of a buffering
// technique" question the paper's introduction raises.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/voodb"
)

func main() {
	params := voodb.DefaultWorkload()
	params.NC = 20
	params.NO = 4000
	params.HotN = 400

	type row struct {
		policy string
		ios    voodb.Interval
		hit    float64
	}
	var rows []row
	for _, policy := range voodb.BufferPolicies() {
		cfg := voodb.DefaultConfig()
		cfg.System = voodb.PageServer
		cfg.BufferPages = 256 // ≈ a quarter of the base: replacement matters
		cfg.BufferPolicy = policy
		res, err := voodb.Experiment{
			Config: cfg, Params: params, Seed: 7, Replications: 5,
		}.Run()
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{policy, res.IOsCI(), res.HitRatio.Mean()})
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].ios.Mean < rows[j].ios.Mean })
	fmt.Printf("replacement policy ranking (%d-page buffer, OCB Table 5 mix)\n\n", 256)
	fmt.Printf("%-8s  %12s  %8s\n", "policy", "mean I/Os", "hit %")
	for _, r := range rows {
		fmt.Printf("%-8s  %7.0f ±%4.0f  %7.1f%%\n", r.policy, r.ios.Mean, r.ios.HalfWidth, r.hit*100)
	}
	fmt.Printf("\nbest: %s — worst: %s (%.1f× more I/Os)\n",
		rows[0].policy, rows[len(rows)-1].policy,
		rows[len(rows)-1].ios.Mean/rows[0].ios.Mean)
}
