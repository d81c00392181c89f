// MPL × SYSCLASS grid: the paper's central genericity claim — one model,
// any architecture — as a single declarative 2-D study. Where
// examples/sweeps hand-loops four 1-D MPL sweeps (one per SystemClass),
// this study declares the architecture itself as an enum axis and runs the
// full cross-product: multiprogramming level × system class, response time
// and throughput per cell, heatmap-rendered.
//
// The same study runs from the CLI:
//
//	go run ./cmd/experiments -sweep mpl=1:13:4 -sweep sysclass=all \
//	    -metrics resp,tps -no 3000 -nc 20 -hotn 240 -reps 5 -chart
package main

import (
	"fmt"
	"log"

	"repro/voodb"
)

func main() {
	mpl, err := voodb.ParseSweepAxis("mpl=1:13:4") // 1, 5, 9, 13
	if err != nil {
		log.Fatal(err)
	}
	classes, err := voodb.ParseSweepAxis("sysclass=all") // all four architectures
	if err != nil {
		log.Fatal(err)
	}

	params := voodb.DefaultWorkload()
	params.NC = 20
	params.NO = 3000
	params.HotN = 240

	cfg := voodb.DefaultConfig()
	cfg.NetThroughputMBps = 1 // a real network: the classes must differ
	cfg.BufferPages = 512
	cfg.Users = 16 // keep the admission scheduler busy so MPL binds

	res, err := voodb.RunSweep(voodb.Sweep{
		Name:    "mpl-sysclass",
		Title:   "MPL × system class",
		Config:  cfg,
		Params:  params,
		Axes:    voodb.Grid(mpl, classes),
		Metrics: []voodb.Metric{voodb.MetricRespMs, voodb.MetricThroughput},
	}, voodb.SweepOptions{Replications: 5, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	// The flat cell table, then one heatmap per metric.
	fmt.Println(res.Text())
	for _, m := range []voodb.Metric{voodb.MetricRespMs, voodb.MetricThroughput} {
		hm, err := res.Heatmap(m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(hm)
	}

	fmt.Println("same buffer and workload => near-identical I/O counts across classes;")
	fmt.Println("what separates the columns under load is the network: page servers ship")
	fmt.Println("4 KB pages, object servers ship objects, DB servers ship results.")
}
