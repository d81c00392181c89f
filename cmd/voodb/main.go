// Command voodb runs one VOODB simulation study from the command line. All
// Table 3 system parameters and the main OCB workload parameters are
// exposed as flags; the result is a replicated experiment with 95 %
// confidence intervals.
//
// Examples:
//
//	voodb -system o2 -no 10000 -reps 20
//	voodb -system texas -memory 8 -reps 10
//	voodb -sysclass centralized -buffer 1024 -pgrep CLOCK -write-prob 0.2
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/report"
	"repro/voodb"
)

func main() {
	var (
		system  = flag.String("system", "", "preset: o2 | texas | texas-dstc (sets what -sysclass, -netthru, -pgsize and -buffer would)")
		sysc    = flag.String("sysclass", "pageserver", "centralized | objectserver | pageserver | dbserver")
		netThru = flag.Float64("netthru", 1, "network throughput MB/s (0 = infinite)")
		pgSize  = flag.Int("pgsize", 4096, "disk page size (bytes)")
		bufPg   = flag.Int("buffer", 500, "buffer size (pages)")
		memory  = flag.Int("memory", 0, "with -system texas or texas-dstc: main memory in MB")
		cache   = flag.Int("cache", 0, "with -system o2: server cache in MB")
		pgrep   = flag.String("pgrep", "LRU", "replacement policy: "+strings.Join(voodb.BufferPolicies(), "|"))
		mpl     = flag.Int("mpl", 10, "multiprogramming level")
		users   = flag.Int("users", 1, "number of users")

		nc        = flag.Int("nc", 50, "OCB: number of classes")
		no        = flag.Int("no", 20000, "OCB: number of instances")
		hotn      = flag.Int("hotn", 1000, "OCB: measured transactions")
		coldn     = flag.Int("coldn", 0, "OCB: unmeasured warm-up transactions")
		writeProb = flag.Float64("write-prob", 0, "OCB: per-access update probability")

		clustering = flag.String("clustering", "none", "clustering module: none | dstc | greedy")
		mtbf       = flag.Float64("failure-mtbf", 0, "mean up-time in ms before a failure, from the batch start or the last repair (0 = none)")
		repair     = flag.Float64("failure-repair", 200, "with -failure-mtbf: mean repair time in ms")

		reps = flag.Int("reps", voodb.DefaultReplications,
			fmt.Sprintf("replications (the paper used %d)", voodb.PaperReplications))
		seed    = flag.Uint64("seed", 1999, "random seed")
		workers = flag.Int("workers", 0, "parallel replications (0 = all cores, 1 = sequential)")
	)
	flag.Parse()

	// Refuse negative sizes before any simulation runs: -memory and -cache
	// would otherwise fall back to the preset's size without a word, and
	// -workers would run on every core.
	if *memory < 0 {
		fatal(fmt.Errorf("-memory %d: need a size in MB ≥ 0 (0 keeps the preset)", *memory))
	}
	if *cache < 0 {
		fatal(fmt.Errorf("-cache %d: need a size in MB ≥ 0 (0 keeps the preset)", *cache))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers %d: use 0 for all cores, 1 for sequential, or a positive worker count", *workers))
	}

	cfg := voodb.DefaultConfig()
	preset := strings.ToLower(*system)
	switch preset {
	case "":
		switch strings.ToLower(*sysc) {
		case "centralized":
			cfg.System = voodb.Centralized
		case "objectserver":
			cfg.System = voodb.ObjectServer
		case "pageserver":
			cfg.System = voodb.PageServer
		case "dbserver":
			cfg.System = voodb.DBServer
		default:
			fatal(fmt.Errorf("unknown -sysclass %q", *sysc))
		}
		if *netThru == 0 {
			cfg.NetThroughputMBps = math.Inf(1)
		} else {
			cfg.NetThroughputMBps = *netThru
		}
		cfg.PageSize = *pgSize
		cfg.BufferPages = *bufPg
	case "o2":
		cfg = voodb.O2()
		if *cache > 0 {
			cfg = voodb.O2WithCache(*cache)
		}
	case "texas":
		cfg = voodb.Texas()
		if *memory > 0 {
			cfg = voodb.TexasWithMemory(*memory)
		}
	case "texas-dstc":
		cfg = voodb.TexasDSTC()
		if *memory > 0 {
			cfg.BufferPages = voodb.TexasWithMemory(*memory).BufferPages
		}
	default:
		fatal(fmt.Errorf("unknown -system %q", *system))
	}
	// Refuse flags the chosen mode does not read: a preset fixes the
	// architecture, page size and buffer; -memory and -cache size only
	// their own presets; the repair time needs failures to repair.
	flag.Visit(func(f *flag.Flag) {
		switch {
		case preset != "" && (f.Name == "sysclass" || f.Name == "netthru" || f.Name == "pgsize" || f.Name == "buffer"):
			fatal(fmt.Errorf("-%s: the -system %s preset sets it; drop one of the two", f.Name, *system))
		case f.Name == "memory" && preset != "texas" && preset != "texas-dstc":
			fatal(fmt.Errorf("-memory sizes only the texas and texas-dstc presets (use -cache with o2, -buffer without a preset)"))
		case f.Name == "cache" && preset != "o2":
			fatal(fmt.Errorf("-cache sizes only the o2 preset (use -memory with texas, -buffer without a preset)"))
		case f.Name == "failure-repair" && *mtbf <= 0:
			fatal(fmt.Errorf("-failure-repair needs a positive -failure-mtbf (without one, no failure occurs)"))
		}
	})
	cfg.BufferPolicy = *pgrep
	cfg.MPL = *mpl
	cfg.Users = *users
	switch strings.ToLower(*clustering) {
	case "none":
	case "dstc":
		cfg.Clustering = voodb.DSTC
		// Arm automatic triggering so the module actually reorganizes
		// during the run (Figure 4's "automatic triggering").
		cfg.DSTCParams.TriggerCandidates = 500
	case "greedy":
		cfg.Clustering = voodb.GreedyGraph
	default:
		fatal(fmt.Errorf("unknown -clustering %q", *clustering))
	}
	if *mtbf > 0 {
		cfg.Failures = voodb.FailureParams{Enabled: true, MTBFMs: *mtbf, MeanRepairMs: *repair}
	}

	params := voodb.DefaultWorkload()
	params.NC = *nc
	params.NO = *no
	params.HotN = *hotn
	params.ColdN = *coldn
	params.WriteProb = *writeProb

	res, err := voodb.Experiment{
		Config: cfg, Params: params, Seed: *seed, Replications: *reps, Workers: *workers,
	}.Run()
	if err != nil {
		fatal(err)
	}

	t := report.NewTable(
		fmt.Sprintf("VOODB — %s, %d classes, %d instances, %d transactions, %d replications",
			cfg.System, *nc, *no, *hotn, *reps),
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
