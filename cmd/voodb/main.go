// Command voodb runs one VOODB simulation study from the command line: a
// replicated experiment reported with 95 % confidence intervals.
//
// -system picks the base configuration: default (Table 3), o2, texas or
// texas-dstc, the presets cmd/experiments' -system takes. Every parameter
// of the sweep registry (experiments -sweep-params lists them) is a flag
// that sets it on top of the preset, in the value syntax of one -sweep
// point: -buffpages 512, -pgrep CLOCK, -netthru Inf for a free network. A
// switch is a boolean flag (-physoids=off). A refused value exits with
// status 1, naming the flag.
//
// Examples:
//
//	voodb -system o2 -no 10000 -reps 20
//	voodb -system texas -buffpages 512 -reps 10
//	voodb -sysclass centralized -buffpages 1024 -pgrep CLOCK -writeprob 0.2
//	voodb -system texas-dstc -dstctrigger 500 -no 4000 -nc 20
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/systems"
	"repro/voodb"
)

func main() {
	system := flag.String("system", "default", "base configuration: default | o2 | texas | texas-dstc")
	reps := flag.Int("reps", voodb.DefaultReplications,
		fmt.Sprintf("replications (the paper used %d)", voodb.PaperReplications))
	seed := flag.Uint64("seed", 1999, "random seed")
	workers := flag.Int("workers", 0, "parallel replications (0 = all cores, 1 = sequential)")
	model := sweep.BindFlags(flag.CommandLine)
	flag.Parse()

	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (a switch takes -name=off)", flag.Arg(0)))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers %d: use 0 for all cores, 1 for sequential, or a positive worker count", *workers))
	}
	cfg, err := systems.Preset(*system)
	if err != nil {
		fatal(fmt.Errorf("-system: %w", err))
	}
	params := voodb.DefaultWorkload()
	if err := model.Apply(&cfg, &params); err != nil {
		fatal(err)
	}

	res, err := voodb.Experiment{
		Config: cfg, Params: params, Seed: *seed, Replications: *reps, Workers: *workers,
	}.Run()
	if err != nil {
		fatal(err)
	}

	t := report.NewTable(
		fmt.Sprintf("VOODB — %s, %d classes, %d instances, %d transactions, %d replications",
			cfg.System, params.NC, params.NO, params.HotN, *reps),
		"metric", "mean", "±95%", "min", "max")
	add := func(name string, s *voodb.Sample) {
		ci := voodb.ConfidenceInterval(s, res.Confidence)
		t.Addf(name, ci.Mean, ci.HalfWidth, s.Min(), s.Max())
	}
	add("I/Os", &res.IOs)
	add("reads", &res.Reads)
	add("writes", &res.Writes)
	add("hit ratio", &res.HitRatio)
	add("response (ms)", &res.RespMs)
	add("throughput (tps)", &res.Throughput)
	fmt.Println(t.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voodb:", err)
	os.Exit(1)
}
