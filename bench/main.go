// Command bench is the repository's end-to-end benchmark. It drives six
// fixed simulation workloads through the layers' public functions (object
// base and workload generation, model build and reset, transaction
// batches, reorganizations, sweeps) in a closed loop, checks every op's
// outputs, and reports host-time and memory metrics; a traced run reports
// modelled-side counts and CPU-profile self shares per layer instead, and
// records per-layer spans and the error against the paper's published
// values. README.md in this directory describes the workloads and metrics.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash bench/run.sh --workload paper-o2 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -workloads all -runs 5 -seed 1999 -out a.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// procs caps the benchmark's threads: the reference box has two cores,
// and one workload runs at a time.
const procs = 2

// recordPrefix marks the stdout line carrying a run's full record, which
// the multi-run mode reads back from its child processes.
const recordPrefix = "record "

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in this process")
	list := fs.String("workloads", "", "comma-separated workloads, or all: run each in its own process")
	runs := fs.Int("runs", 1, "with -workloads: runs of every workload, interleaved")
	out := fs.String("out", "", "with -workloads: write the results file here")
	seed := fs.Uint64("seed", 1999, "workload seed")
	seconds := fs.Float64("seconds", 15, "timed seconds per run")
	trace := fs.Int("trace", 0, "1: per-layer spans and CPU profile instead of end-to-end metrics")
	quick := fs.Bool("quick", false, "shrink every workload (smoke test)")
	workdir := fs.String("workdir", ".bench_build", "directory for CPU profiles")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v: want > 0", *seconds)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs %d: want >= 1", *runs)
	}
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, workdir: *workdir}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two results files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
	case *name != "":
		w, err := lookup(*name)
		if err != nil {
			return err
		}
		if rc.trace {
			if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
				return err
			}
		}
		rec, err := measure(w, rc)
		if err != nil {
			return err
		}
		return printRecord(stdout, rec)
	case *list != "":
		names, err := workloadNames(*list)
		if err != nil {
			return err
		}
		return runAll(names, *runs, rc, *out, stdout)
	}
	return errors.New("give -workload, -workloads or -compare")
}

// printRecord writes a run's metrics for people, its full record, and as
// the last line the summary object: correct, attempted, failed and the
// metrics with their units.
func printRecord(w io.Writer, rec *record) error {
	fmt.Fprintf(w, "%s seed %d trace %t: %d ops attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAILED", f)
	}
	fmt.Fprintln(w, "  sim_digest", rec.SimDigest)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := rec.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-26s %14.4f %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
	if rec.OpMsP90 > 0 {
		fmt.Fprintf(w, "  %-26s %14.4f ms (%d ops, not bounded)\n", "op_ms_p90", rec.OpMsP90, rec.Attempted-1)
	}
	for _, extra := range []struct {
		what string
		vals map[string]float64
	}{{"count", rec.Counts}, {"unscaled", rec.Raw}, {"span ms", rec.Spans}} {
		names := make([]string, 0, len(extra.vals))
		for n := range extra.vals {
			if _, ok := rec.Metrics[n]; !ok || extra.what == "unscaled" {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-8s %-26s %14.4f\n", extra.what, n, extra.vals[n])
		}
	}
	if rec.Scale > 0 {
		fmt.Fprintf(w, "  host-speed scale %.4f\n", rec.Scale)
	}
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	summary, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n%s\n", recordPrefix, full, summary)
	return err
}

func workloadNames(list string) ([]string, error) {
	if list == "all" {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return names, nil
	}
	names := strings.Split(list, ",")
	for _, n := range names {
		if _, err := lookup(n); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// results is the file -workloads writes and -compare reads.
type results struct {
	Seconds float64   `json:"seconds"`
	Runs    []*record `json:"runs"`
}

// runAll runs every named workload runs times, interleaved, each in a
// fresh process of this executable, so each run's peak RSS and GC state
// are its own and only one workload loads the machine at a time.
func runAll(names []string, runs int, rc runConfig, out string, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := results{Seconds: rc.seconds}
	for r := 0; r < runs; r++ {
		for _, n := range names {
			args := []string{"-workload", n, "-seed", strconv.FormatUint(rc.seed, 10),
				"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-workdir", rc.workdir}
			if rc.trace {
				args = append(args, "-trace", "1")
			}
			if rc.quick {
				args = append(args, "-quick")
			}
			var buf bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = io.MultiWriter(&buf, stdout), os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", n, r, err)
			}
			rec, err := readRecord(&buf)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", n, r, err)
			}
			res.Runs = append(res.Runs, rec)
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// readRecord finds the record line in a child's output.
func readRecord(r io.Reader) (*record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), recordPrefix); ok {
			rec := new(record)
			if err := json.Unmarshal([]byte(rest), rec); err != nil {
				return nil, err
			}
			return rec, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("no record line in output")
}
