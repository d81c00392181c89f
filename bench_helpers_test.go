package repro_bench

import (
	"testing"

	"repro/voodb"
)

// systemsTexas8MB returns the Figure 11 8 MB Texas configuration with a
// reduced workload for the ablation benches.
func systemsTexas8MB() voodb.Config {
	return voodb.TexasWithMemory(8)
}

// runOnce executes a single-replication reduced workload and returns the
// mean I/O count.
func runOnce(b *testing.B, cfg voodb.Config) float64 {
	b.Helper()
	params := voodb.DefaultWorkload()
	params.NC = 20
	params.NO = 5000
	params.HotN = 300
	res, err := voodb.Experiment{
		Config: cfg, Params: params, Seed: 3, Replications: 1,
	}.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res.IOs.Mean()
}
