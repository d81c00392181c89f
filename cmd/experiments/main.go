// Command experiments regenerates every table and figure of the paper's
// evaluation section (§4), printing our simulated results next to the
// published values (exact for Tables 6–8, digitized for the figures) —
// and runs user-defined parameter sweeps over the same engine.
//
// Usage:
//
//	experiments [-run fig6|…|table8|all] [-reps N] [-seed S] [-workers W]
//	            [-share-bases] [-dblayout eager|eagerv2|stream] [-csv] [-chart]
//	experiments -sweep param=lo:hi:step [-sweep param=A,B,…] [-metrics ios,resp,…]
//	            [-system default|o2|texas|texas-dstc] [-no N] [-nc N] [-mpl N] …
//	experiments -sweep-params
//
// Every parameter of the sweep registry (-sweep-params lists them) is also
// a flag that sets it once, in the value syntax of one -sweep point, as
// cmd/voodb's flags do: on top of the -system preset and the Table 5
// workload it sets the -sweep base. A -run figure or table fixes its own
// configuration and reads only -dblayout, the layout of its object base;
// any other model flag is refused there, and so is a model flag that names
// a -sweep axis, which would override it in every cell. The stream layout
// generates the object base on demand behind a bounded cache (O(hot-set)
// resident memory; bit-identical to eagerv2), enabling million-object -no
// values. -cpuprofile/-memprofile write pprof profiles and -trace a
// runtime execution trace for the whole run (see PERFORMANCE.md). Both
// forms run under the same options (-reps, -seed, -workers, -share-bases,
// -on-error, -cell-timeout).
//
// Both forms run one loop: every cell of every spec is checked before the
// first one runs, then each spec runs and renders, a cell that did not
// complete showing "(failed)" or "(pending)", and an incomplete spec is
// followed by its completed/failed/pending summary. Under -on-error skip
// the next selected spec still runs. The exit status is 0 when every cell
// completed, 1 when the run was refused or a cell failed at run time (a
// panic or a blown -cell-timeout, under either -on-error policy), and 130
// when a signal interrupted it.
//
// The -sweep form compiles a declarative voodb.Sweep from the flag set: a
// base system configuration (-system and the model flags), one axis per
// -sweep flag over any Table 3 / OCB parameter (see -sweep-params for
// names and kinds), and a metric subset (-metrics; default all). Numeric
// parameters take lo:hi:step ranges or value lists; enum parameters take
// choice lists (or "all"); bool parameters on/off. Repeating -sweep runs
// the full cross-product grid; two-axis grids render as heatmaps under
// -chart. Examples:
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
	"slices"
	"strings"
	"sync"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/systems"
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
	reps := flag.Int("reps", voodb.DefaultReplications,
		fmt.Sprintf("replications per point (the paper used %d)", voodb.PaperReplications))
	seed := flag.Uint64("seed", 1999, "base random seed")
	workers := flag.Int("workers", 0, "parallel replications per point (0 = all cores, 1 = sequential)")
	shareBases := flag.Bool("share-bases", false,
		"share each replication's object base across the points of non-generative sweeps (common random numbers; generates once per replication instead of once per point)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	chart := flag.Bool("chart", false, "draw ASCII charts (heatmaps for 2-axis grids)")
	verbose := flag.Bool("v", false, "print per-point progress")
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
		"policy for a cell that panics or times out: fail (stop the run) or skip (record the failure and continue); either way the exit status is 1")
	cellTimeout := flag.Duration("cell-timeout", 0,
		"wall-clock budget per sweep cell, e.g. 30s; a cell exceeding it fails under the -on-error policy (0 = unbounded)")

	var sweeps axisSpecs
	flag.Var(&sweeps, "sweep",
		"user-defined sweep axis, param=lo:hi:step, param=v1,v2,… or param=A,B,… for enums; repeat for a cross-product grid (overrides -run; see -sweep-params)")
	metrics := flag.String("metrics", "",
		"comma-separated metric subset for -sweep (default: every metric)")
	system := flag.String("system", "default",
		"base configuration for -sweep: default (Table 3), o2, texas (Table 4) or texas-dstc")
	listParams := flag.Bool("sweep-params", false, "list sweepable parameters and exit")
	model := sweep.BindFlags(flag.CommandLine)
	flag.Parse()

	if *listParams {
		printSweepParams()
		return
	}

	// Validate inputs before any simulation starts: a typo'd flag should
	// fail in milliseconds with the legal choices, not after minutes of
	// replications (unknown -sweep parameters and enum values already list
	// theirs in ParseSweepAxis).
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (a switch takes -name=off)", flag.Arg(0)))
	}
	if *reps < 1 {
		fatal(fmt.Errorf("-reps %d: need at least 1 replication per point", *reps))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers %d: use 0 for all cores, 1 for sequential, or a positive worker count", *workers))
	}
	if *cellTimeout < 0 {
		fatal(fmt.Errorf("-cell-timeout %v: the per-cell budget must be ≥ 0", *cellTimeout))
	}
	policy, err := voodb.ParseFailurePolicy(*onError)
	if err != nil {
		fatal(fmt.Errorf("-on-error: %w", err))
	}
	// The -sweep base and checkpoint flags mean nothing to a -run figure
	// or table, which fixes its own configuration; refuse them rather than
	// print results the flags did not shape. Of the model flags a figure
	// reads only -dblayout.
	if len(sweeps) == 0 {
		flag.Visit(func(f *flag.Flag) {
			_, isModel := sweep.LookupParam(f.Name)
			switch {
			case f.Name == "dblayout":
			case isModel, f.Name == "system", f.Name == "metrics", f.Name == "journal", f.Name == "resume":
				fatal(fmt.Errorf("-%s applies only to -sweep runs; add a -sweep axis or drop the flag", f.Name))
			}
		})
	}
	if *journalPath != "" && *resumePath != "" {
		fatal(fmt.Errorf("-resume already appends new cells to the journal it resumes; drop -journal"))
	}

	var progress func(string)
	if *verbose {
		progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	// Profiles are opened (and the CPU profile/execution trace started)
	// before any simulation, so an unwritable path fails immediately; every
	// exit path — normal return, fatal(), the explicit os.Exit after an
	// incomplete run — flushes them through stopProfiles.
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

	opts := voodb.SweepOptions{Replications: *reps, Seed: *seed, Workers: *workers,
		ShareBases: *shareBases, Progress: progress,
		Policy: policy, CellTimeout: *cellTimeout}
	var specs []voodb.Sweep
	if len(sweeps) > 0 {
		specs = []voodb.Sweep{userSweep(sweeps, *metrics, *system, model)}
	} else {
		ids := experiments.Names()
		if *run != "all" {
			ids = strings.Split(*run, ",")
		}
		for _, id := range ids {
			s, err := experiments.Spec(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			if err := model.Apply(&s.Config, &s.Params); err != nil {
				fatal(err)
			}
			specs = append(specs, s)
		}
	}
	// Check every cell of every spec before the first one runs (a
	// clustering table cannot run on a streaming base, say).
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			fatal(err)
		}
	}
	// Only a -sweep run journals: -journal and -resume are refused above
	// without one, so specs holds that run's one spec.
	var journal *voodb.SweepJournal
	resumeHint := "" // the journal a rerun of an incomplete run resumes
	switch {
	case *resumePath != "":
		j, data, err := specs[0].ResumeJournal(*resumePath, opts)
		if err != nil {
			fatal(err)
		}
		journal, resumeHint = j, *resumePath
		opts.Journal, opts.Resume = j, data
		note := ""
		if data.Truncated {
			note = " (dropped a torn final record)"
		}
		fmt.Fprintf(os.Stderr, "experiments: resuming %s: replaying %d/%d cells%s\n",
			*resumePath, data.Len(), data.Header.Cells, note)
	case *journalPath != "":
		j, err := specs[0].StartJournal(*journalPath, opts)
		if err != nil {
			fatal(err)
		}
		journal, resumeHint = j, *journalPath
		opts.Journal = j
	}

	status := 0
	for _, s := range specs {
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
		if len(sweeps) > 0 {
			renderSweep(res, *csv, *chart)
		} else {
			renderReproduction(res, *csv, *chart)
		}
		if st := summarize(res, err, resumeHint); st > status {
			status = st
		}
		if err != nil {
			break // interrupted, or a failed cell under -on-error fail
		}
	}
	if status != 0 {
		stopProfiles()
		os.Exit(status)
	}
}

// stopProfiles flushes any active -cpuprofile/-memprofile/-trace outputs.
// It is a package variable because fatal() and the os.Exit after an
// incomplete run bypass main's defer; startProfiles makes it idempotent.
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

// userSweep compiles a declarative sweep from the flags — the -system
// preset and the model flags make its base. One -sweep flag makes the
// classic 1-D study; several make the cross-product grid.
func userSweep(specs []string, metrics, system string, model *sweep.Flags) voodb.Sweep {
	axes := make([]voodb.Axis, len(specs))
	names := make([]string, len(specs))
	for i, spec := range specs {
		axis, err := voodb.ParseSweepAxis(spec)
		if err != nil {
			fatal(err)
		}
		axes[i] = axis
		names[i] = axis.Name
	}
	// An axis writes its parameter in every cell, so a flag setting the
	// same one would be overridden without a word.
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			fatal(fmt.Errorf("-%s: the -sweep %s axis sets it in every cell; drop one of the two", f.Name, f.Name))
		}
	})
	ms, err := voodb.ParseSweepMetrics(metrics, voodb.StandardProtocol)
	if err != nil {
		fatal(err)
	}
	cfg, err := systems.Preset(system)
	if err != nil {
		fatal(fmt.Errorf("-system: %w", err))
	}
	params := voodb.DefaultWorkload()
	if err := model.Apply(&cfg, &params); err != nil {
		fatal(err)
	}
	return voodb.Sweep{
		Name:    "sweep-" + strings.Join(names, "-x-"),
		Title:   fmt.Sprintf("%s sweep (%s system, NC=%d, NO=%d)", strings.Join(names, " × "), system, params.NC, params.NO),
		Config:  cfg,
		Params:  params,
		Axes:    axes,
		Metrics: ms,
	}
}

// renderReproduction prints a figure or table beside the paper's values,
// and under -chart a figure's chart.
func renderReproduction(res *voodb.SweepResult, csv, chart bool) {
	t, err := experiments.Table(res)
	if err != nil {
		fatal(err)
	}
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
	if c := experiments.Chart(res, 12); chart && c != "" {
		fmt.Println(c)
	}
}

// renderSweep prints a user sweep: its CSV, its table (one per facet for a
// grid), and under -chart a heatmap per metric for a 2-axis grid or the
// curves otherwise.
func renderSweep(res *voodb.SweepResult, csv, chart bool) {
	switch {
	case csv:
		fmt.Print(res.CSV())
	case res.Dims() > 1:
		for _, t := range res.FacetTables() {
			fmt.Println(t.String())
		}
	default:
		fmt.Println(res.Text())
	}
	if !chart {
		return
	}
	if res.Dims() != 2 {
		fmt.Print(res.Chart(12))
		return
	}
	for _, m := range res.Metrics {
		hm, err := res.Heatmap(m)
		if err != nil {
			fatal(err)
		}
		fmt.Println(hm)
	}
}

// summarize prints what an incomplete result lacks: the cell counts, every
// failed cell's error, the hint to resume the journal when there is one,
// and any error that is no cell's own (an interruption, say). It returns
// the exit status the result calls for: 0 when every cell completed, 130
// when a signal interrupted the run, 1 otherwise.
func summarize(res *voodb.SweepResult, err error, resumeHint string) int {
	if res.Partial() {
		fmt.Fprintf(os.Stderr, "experiments: sweep incomplete: %d completed, %d failed, %d pending of %d cells\n",
			res.Completed(), res.Failed(), res.Pending(), len(res.Points))
		for _, ce := range res.Failures {
			fmt.Fprintln(os.Stderr, "experiments:", ce)
		}
		if resumeHint != "" {
			fmt.Fprintf(os.Stderr, "experiments: rerun with -resume %s to finish the remaining cells\n", resumeHint)
		}
	}
	// A fail-fast stop returns the failed cell's error, listed above.
	var ce *voodb.CellError
	if err != nil && !errors.As(err, &ce) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	switch {
	case errors.Is(err, context.Canceled):
		return 130 // interrupted by signal
	case err != nil || res.Failed() > 0:
		return 1
	}
	return 0
}

// printSweepParams lists the registry: each parameter's kind and, for
// enums, its legal choices — so `-sweep-params` tells numeric ranges,
// choice lists and switches apart.
func printSweepParams() {
	t := report.NewTable("model parameters (-name value sets one, -sweep name=lo:hi:step, name=v1,v2,… or name=A,B,… sweeps it; repeat -sweep for a grid)",
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	stopProfiles()
	os.Exit(1)
}
