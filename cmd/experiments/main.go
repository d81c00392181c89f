// Command experiments regenerates every table and figure of the paper's
// evaluation section (§4), printing our simulated results next to the
// published values (exact for Tables 6–8, digitized for the figures) —
// and runs user-defined parameter sweeps over the same engine.
//
// Usage:
//
//	experiments [-run fig6|…|table8|all] [-reps N] [-seed S] [-workers W]
//	            [-share-bases] [-csv] [-chart]
//	experiments -sweep param=lo:hi:step [-sweep param=A,B,…] [-metrics ios,resp,…]
//	            [-system default|o2|texas] [-no N] [-nc N] [-hotn N]
//	            [-db-layout eager|eagerv2|stream] …
//	experiments -sweep-params
//
// -db-layout stream generates the object base on demand behind a bounded
// cache (O(hot-set) resident memory; bit-identical to eagerv2), enabling
// million-object -no values. -cpuprofile/-memprofile write pprof profiles
// and -trace a runtime execution trace for the whole run (see
// PERFORMANCE.md).
//
// The -sweep form compiles a declarative voodb.Sweep from the flag set: a
// base system configuration (-system, workload sizing via -no/-nc/-hotn),
// one axis per -sweep flag over any Table 3 / OCB parameter (see
// -sweep-params for names and kinds), and a metric subset (-metrics;
// default all). Numeric parameters take lo:hi:step ranges or value lists;
// enum parameters take choice lists (or "all"); bool parameters on/off.
// Repeating -sweep runs the full cross-product grid; two-axis grids render
// as heatmaps under -chart. Examples:
//
//	experiments -sweep mpl=1:16:5 -metrics ios,resp,tps -system o2 -reps 10
//	experiments -sweep pgrep=LRU,FIFO,RANDOM -sweep buffpages=100:1500:200 -metrics ios -chart
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/voodb"
)

// axisSpecs collects repeated -sweep flags: one axis per occurrence, in
// flag order (first flag = first/slowest grid axis).
type axisSpecs []string

func (a *axisSpecs) String() string { return strings.Join(*a, " ") }

func (a *axisSpecs) Set(v string) error {
	*a = append(*a, v)
	return nil
}

func main() {
	run := flag.String("run", "all", "experiment id (fig6…fig11, table6…table8) or 'all'")
	reps := flag.Int("reps", experiments.DefaultReplications,
		fmt.Sprintf("replications per point (the paper used %d)", voodb.PaperReplications))
	seed := flag.Uint64("seed", 1999, "base random seed")
	workers := flag.Int("workers", 0, "parallel replications per point (0 = all cores, 1 = sequential)")
	shareBases := flag.Bool("share-bases", false,
		"share each replication's object base across the points of non-generative sweeps (common random numbers; generates once per replication instead of once per point)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	chart := flag.Bool("chart", false, "draw ASCII charts (heatmaps for 2-axis grids)")
	verbose := flag.Bool("v", false, "print per-point progress")
	dbLayout := flag.String("db-layout", "eager",
		"object-base generation layout: eager (legacy, fully materialized), eagerv2 or stream (on-demand materialization, O(hot-set) resident memory — use for million-object -no runs)")
	cpuprofile := flag.String("cpuprofile", "",
		"write a CPU profile of the whole run to this file (inspect with go tool pprof)")
	memprofile := flag.String("memprofile", "",
		"write an allocation profile at exit to this file (inspect with go tool pprof)")
	tracefile := flag.String("trace", "",
		"write a runtime execution trace of the whole run to this file (inspect with go tool trace)")

	journalPath := flag.String("journal", "",
		"write a resumable JSONL checkpoint of completed sweep cells to this file (-sweep mode)")
	resumePath := flag.String("resume", "",
		"resume an interrupted -sweep run from its checkpoint journal: completed cells replay, only the remainder executes, and the merged result is byte-identical to an uninterrupted run")
	onError := flag.String("on-error", "fail",
		"failed-cell policy: fail (abort the run), skip (record the failure and continue) or retry (exponential backoff, then skip)")
	retries := flag.Int("retries", 0,
		"per-cell retry budget under '-on-error retry' (0 = default)")
	cellTimeout := flag.Duration("cell-timeout", 0,
		"wall-clock budget per sweep cell, e.g. 30s; a cell exceeding it fails under the -on-error policy (0 = unbounded)")

	var sweeps axisSpecs
	flag.Var(&sweeps, "sweep",
		"user-defined sweep axis, param=lo:hi:step, param=v1,v2,… or param=A,B,… for enums; repeat for a cross-product grid (overrides -run; see -sweep-params)")
	metrics := flag.String("metrics", "",
		"comma-separated metric subset for -sweep (default: every metric)")
	system := flag.String("system", "default",
		"base configuration for -sweep: default (Table 3), o2 or texas (Table 4)")
	no := flag.Int("no", 0, "override OCB instance count for -sweep (default Table 5)")
	nc := flag.Int("nc", 0, "override OCB class count for -sweep")
	hotn := flag.Int("hotn", 0, "override OCB measured-transaction count for -sweep")
	listParams := flag.Bool("sweep-params", false, "list sweepable parameters and exit")
	flag.Parse()

	if *listParams {
		printSweepParams()
		return
	}

	// Validate inputs before any simulation starts: a typo'd flag should
	// fail in milliseconds with the legal choices, not after minutes of
	// replications (unknown -sweep parameters and -db-layout names already
	// list theirs in ParseSweepAxis/parseLayout).
	if *reps < 1 {
		fatal(fmt.Errorf("-reps %d: need at least 1 replication per point", *reps))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers %d: use 0 for all cores, 1 for sequential, or a positive worker count", *workers))
	}
	if *no < 0 || *nc < 0 || *hotn < 0 {
		fatal(fmt.Errorf("-no/-nc/-hotn must be ≥ 0 (0 keeps the Table 5 default)"))
	}
	if *retries < 0 {
		fatal(fmt.Errorf("-retries %d: the retry budget must be ≥ 0", *retries))
	}
	if *cellTimeout < 0 {
		fatal(fmt.Errorf("-cell-timeout %v: the per-cell budget must be ≥ 0", *cellTimeout))
	}
	policy, err := voodb.ParseFailurePolicy(*onError)
	if err != nil {
		fatal(fmt.Errorf("-on-error: %w", err))
	}
	if (*journalPath != "" || *resumePath != "") && len(sweeps) == 0 {
		fatal(fmt.Errorf("-journal/-resume checkpoint user sweeps; add at least one -sweep axis"))
	}
	if *journalPath != "" && *resumePath != "" {
		fatal(fmt.Errorf("-resume already appends new cells to the journal it resumes; drop -journal"))
	}

	var progress func(string)
	if *verbose {
		progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	layout, err := parseLayout(*dbLayout)
	if err != nil {
		fatal(err)
	}

	// Profiles are opened (and the CPU profile/execution trace started)
	// before any simulation, so an unwritable path fails immediately; every
	// exit path — normal return, fatal(), the explicit os.Exit calls after
	// an interrupted sweep — flushes them through stopProfiles.
	stop, err := startProfiles(*cpuprofile, *memprofile, *tracefile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	// Graceful shutdown: SIGINT/SIGTERM cancel the run cooperatively — the
	// current cells stop at their next replication boundary or kernel stop
	// check, the journal keeps every completed cell, and whatever finished
	// is rendered before exiting. A second signal kills the process (the
	// signal handler is restored once the context is cancelled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if len(sweeps) > 0 {
		runUserSweep(ctx, userSweepFlags{
			axes: sweeps, metrics: *metrics, system: *system,
			no: *no, nc: *nc, hotn: *hotn,
			reps: *reps, seed: *seed, workers: *workers, shareBases: *shareBases,
			layout: layout, journal: *journalPath, resume: *resumePath,
			policy: policy, retries: *retries, cellTimeout: *cellTimeout,
			csv: *csv, chart: *chart, progress: progress,
		})
		return
	}

	opts := experiments.Options{Replications: *reps, Seed: *seed, Workers: *workers,
		ShareBases: *shareBases, DBLayout: layout, Progress: progress,
		Policy: policy, Retries: *retries, CellTimeout: *cellTimeout}
	ids := experiments.Names()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if strings.HasPrefix(id, "fig") {
			fig, err := experiments.FigureContext(ctx, id, opts)
			if err != nil {
				if fig != nil && len(fig.Points) > 0 {
					printFigure(fig, *csv, *chart)
				}
				fatal(err)
			}
			printFigure(fig, *csv, *chart)
			continue
		}
		tbl, err := experiments.TableContext(ctx, id, opts)
		if err != nil {
			fatal(err)
		}
		printTable(tbl, *csv)
	}
}

// parseLayout reads the -db-layout flag value.
func parseLayout(name string) (voodb.Layout, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "eager":
		return voodb.LayoutEager, nil
	case "eagerv2":
		return voodb.LayoutEagerV2, nil
	case "stream":
		return voodb.LayoutStream, nil
	default:
		return voodb.LayoutEager, fmt.Errorf("unknown -db-layout %q (eager|eagerv2|stream)", name)
	}
}

// stopProfiles flushes any active -cpuprofile/-memprofile/-trace outputs.
// It is a package variable because fatal() and the post-sweep os.Exit calls
// bypass main's defer; startProfiles makes it idempotent.
var stopProfiles = func() {}

// startProfiles opens the requested profile outputs and starts the CPU
// profile and execution trace, returning the idempotent flush function. All
// files are created up front so path errors surface before any simulation
// runs.
func startProfiles(cpu, mem, trc string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuF = f
	}
	var memF *os.File
	if mem != "" {
		f, err := os.Create(mem)
		if err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
		memF = f
	}
	var trcF *os.File
	if trc != "" {
		f, err := os.Create(trc)
		if err == nil {
			err = trace.Start(f)
			if err != nil {
				f.Close()
			}
		}
		if err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			if memF != nil {
				memF.Close()
			}
			return nil, fmt.Errorf("-trace: %w", err)
		}
		trcF = f
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			if trcF != nil {
				trace.Stop()
				trcF.Close()
			}
			if memF != nil {
				runtime.GC() // settle live-heap accounting before the snapshot
				if err := pprof.Lookup("allocs").WriteTo(memF, 0); err != nil {
					fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
				}
				memF.Close()
			}
		})
	}, nil
}

// userSweepFlags carries the -sweep mode's flag values.
type userSweepFlags struct {
	axes            []string
	metrics, system string
	no, nc, hotn    int
	reps            int
	seed            uint64
	workers         int
	shareBases      bool
	layout          voodb.Layout
	journal, resume string
	policy          voodb.SweepFailurePolicy
	retries         int
	cellTimeout     time.Duration
	csv, chart      bool
	progress        func(string)
}

// runUserSweep compiles and executes a declarative sweep from the flags —
// entirely through the public voodb API. One -sweep flag runs the classic
// 1-D study; several run the cross-product grid. Interruption (ctx) and
// failed cells render whatever completed, annotated with the cell counts.
func runUserSweep(ctx context.Context, f userSweepFlags) {
	axes := make([]voodb.Axis, len(f.axes))
	names := make([]string, len(f.axes))
	for i, spec := range f.axes {
		axis, err := voodb.ParseSweepAxis(spec)
		if err != nil {
			fatal(err)
		}
		axes[i] = axis
		names[i] = axis.Name
	}
	ms, err := voodb.ParseSweepMetrics(f.metrics, voodb.StandardProtocol)
	if err != nil {
		fatal(err)
	}
	var cfg voodb.Config
	switch strings.ToLower(f.system) {
	case "", "default":
		cfg = voodb.DefaultConfig()
	case "o2":
		cfg = voodb.O2()
	case "texas":
		cfg = voodb.Texas()
	default:
		fatal(fmt.Errorf("unknown -system %q (default|o2|texas)", f.system))
	}
	params := voodb.DefaultWorkload()
	if f.no > 0 {
		params.NO = f.no
	}
	if f.nc > 0 {
		params.NC = f.nc
	}
	if f.hotn > 0 {
		params.HotN = f.hotn
	}
	s := voodb.Sweep{
		Name:    "sweep-" + strings.Join(names, "-x-"),
		Title:   fmt.Sprintf("%s sweep (%s system, NC=%d, NO=%d)", strings.Join(names, " × "), f.system, params.NC, params.NO),
		Config:  cfg,
		Params:  params,
		Metrics: ms,
	}
	if len(axes) == 1 {
		s.Axis = axes[0]
	} else {
		s.Axes = voodb.Grid(axes...)
	}
	opts := voodb.SweepOptions{
		Replications: f.reps,
		Seed:         f.seed,
		Workers:      f.workers,
		ShareBases:   f.shareBases,
		DBLayout:     f.layout,
		Progress:     f.progress,
		Policy:       f.policy,
		Retries:      f.retries,
		CellTimeout:  f.cellTimeout,
	}
	var journal *voodb.SweepJournal
	switch {
	case f.resume != "":
		j, data, err := s.ResumeJournal(f.resume, opts)
		if err != nil {
			fatal(err)
		}
		journal = j
		opts.Journal, opts.Resume = j, data
		note := ""
		if data.Truncated {
			note = " (dropped a torn final record)"
		}
		fmt.Fprintf(os.Stderr, "experiments: resuming %s: replaying %d/%d cells%s\n",
			f.resume, data.Len(), data.Header.Cells, note)
	case f.journal != "":
		j, err := s.StartJournal(f.journal, opts)
		if err != nil {
			fatal(err)
		}
		journal = j
		opts.Journal = j
	}

	res, err := voodb.RunSweepContext(ctx, s, opts)
	if journal != nil {
		// Flush the checkpoint before rendering: if rendering dies, the
		// journal still resumes.
		if cerr := journal.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", cerr)
		}
	}
	if res == nil {
		fatal(err)
	}
	switch {
	case f.csv:
		fmt.Print(res.CSV())
	case res.Dims() > 1:
		for _, t := range res.FacetTables() {
			fmt.Println(t.String())
		}
	default:
		fmt.Println(res.Text())
	}
	if f.chart {
		if res.Dims() == 2 {
			for _, m := range ms {
				hm, herr := res.Heatmap(m)
				if herr != nil {
					fatal(herr)
				}
				fmt.Println(hm)
			}
		} else {
			fmt.Print(res.Chart(12))
		}
	}
	if res.Partial() {
		fmt.Fprintf(os.Stderr, "experiments: sweep incomplete: %d completed, %d failed, %d pending of %d cells\n",
			res.Completed(), res.Failed(), res.Pending(), len(res.Points))
		for _, ce := range res.Failures {
			fmt.Fprintln(os.Stderr, "experiments:", ce)
		}
		if path := firstNonEmpty(f.resume, f.journal); path != "" && res.Pending() > 0 {
			fmt.Fprintf(os.Stderr, "experiments: rerun with -resume %s to finish the remaining cells\n", path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		stopProfiles()
		if errors.Is(err, context.Canceled) {
			os.Exit(130) // interrupted by signal
		}
		os.Exit(1)
	}
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// printSweepParams lists the registry: each parameter's kind and, for
// enums, its legal choices — so `-sweep-params` tells numeric ranges,
// choice lists and switches apart.
func printSweepParams() {
	t := report.NewTable("sweepable parameters (-sweep name=lo:hi:step, name=v1,v2,… or name=A,B,…; repeat -sweep for a grid)",
		"name", "kind", "generative", "values", "description")
	for _, p := range voodb.SweepParams() {
		gen := ""
		if p.Generative {
			gen = "yes"
		}
		values := ""
		switch p.Kind {
		case voodb.EnumParam:
			values = strings.Join(p.Choices, ",")
		case voodb.BoolParam:
			values = "on,off"
		}
		t.AddRow(p.Name, p.Kind.String(), gen, values, p.Doc)
	}
	fmt.Println(t.String())
	fmt.Println("generative parameters feed object-base/workload generation; sweeps over them regenerate bases per point and ignore -share-bases")
}

func printFigure(f *experiments.Figure, csv, chart bool) {
	t := report.NewTable(
		fmt.Sprintf("%s — %s (paper curves digitized, approximate)", f.ID, f.Title),
		f.XLabel, "paper bench", "paper sim", "ours", "±95%", "hit%")
	for i, p := range f.Points {
		if p.IOs.N == 0 { // point never ran (interrupted mid-figure)
			t.Addf(p.X, f.Paper.Benchmark[i], f.Paper.Simulated[i], "(pending)", "", "")
			continue
		}
		t.Addf(p.X, f.Paper.Benchmark[i], f.Paper.Simulated[i], p.IOs.Mean, p.IOs.HalfWidth, p.HitPct)
	}
	emit(t, csv)
	if chart {
		fmt.Println(report.Chart(f.ID, f.Paper.X, map[string][]float64{
			"paper": f.Paper.Benchmark,
			"ours":  f.SimValues(),
		}, 12))
	}
}

func printTable(tbl *experiments.TableResult, csv bool) {
	headers := []string{"metric", "paper bench", "paper sim", "ours", "±95%"}
	if tbl.AltName != "" {
		headers = append(headers, tbl.AltName, "±95%")
	}
	t := report.NewTable(fmt.Sprintf("%s — %s", tbl.ID, tbl.Title), headers...)
	for _, r := range tbl.Rows {
		cells := []interface{}{r.Name, r.PaperBench, r.PaperSim, r.Ours.Mean, r.Ours.HalfWidth}
		if tbl.AltName != "" {
			cells = append(cells, r.OursAlt.Mean, r.OursAlt.HalfWidth)
		}
		t.Addf(cells...)
	}
	emit(t, csv)
}

func emit(t *report.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	stopProfiles()
	os.Exit(1)
}
