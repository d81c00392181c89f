package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

type benchWorkload struct{ Name, Why string }

// readBenchmarkJSON returns BENCHMARK.json's workloads and its end-to-end
// and per-layer metrics by name.
func readBenchmarkJSON(t *testing.T) ([]benchWorkload, map[string]metricDef, map[string]metricDef) {
	t.Helper()
	type def struct{ Name, Unit, Better string }
	var raw struct {
		Workloads []benchWorkload
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &raw); err != nil {
		t.Fatal(err)
	}
	toMap := func(defs []def) map[string]metricDef {
		m := map[string]metricDef{}
		for _, d := range defs {
			m[d.Name] = metricDef{d.Name, d.Unit, d.Better}
		}
		return m
	}
	return raw.Workloads, toMap(raw.EndToEnd), toMap(raw.PerLayer)
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and metric
// names, units and directions in step with what the program emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	wls, e2e, layer := readBenchmarkJSON(t)
	if len(wls) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(wls), len(workloads))
	}
	// Every workload reports every per-layer metric.
	if pairs := len(workloads) * len(layer); pairs > 128 {
		t.Errorf("%d (workload, per-layer metric) pairs, want at most 128", pairs)
	}
	for i, w := range workloads {
		if wls[i] != (benchWorkload{w.name, w.why}) {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, wls[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json map[string]metricDef
		code []metricDef
	}{{e2e, endToEnd}, {layer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json has %d metrics, code %d", len(c.json), len(c.code))
		}
		for _, d := range c.code {
			if c.json[d.name] != d {
				t.Errorf("metric %s: BENCHMARK.json %+v, code %+v", d.name, c.json[d.name], d)
			}
		}
	}
}

// sampleBits renders a Sample's running state so two samples compare
// bit for bit.
func sampleBits(s *stats.Sample) [3]uint64 {
	return [3]uint64{uint64(s.N()), math.Float64bits(s.Mean()), math.Float64bits(s.Variance())}
}

// TestDriveMatchesExperiment pins the benchmark's core loop to the engine
// it stands in for: three replications driven op by op equal
// core.Experiment (or core.DSTCExperiment) on one worker, hex-exact.
func TestDriveMatchesExperiment(t *testing.T) {
	const seed, reps = 7, 3
	for _, name := range []string{"paper-o2", "texas-swap", "mpl-contend", "dstc-reorg"} {
		w, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		c := w.newRunner(seed, true).(*coreLoop)
		var ios, hit, resp, pre, overhead, post, gain stats.Sample
		for i := 0; i < reps; i++ {
			outs, err := c.step(i, nil)
			if err != nil {
				t.Fatal(err)
			}
			o := outs[0]
			if o.bad != "" {
				t.Fatalf("%s op %d: %s", name, i, o.bad)
			}
			ios.Add(o.sim.Reads + o.sim.Writes)
			hit.Add(o.sim.HitRatio)
			resp.Add(o.sim.RespMs)
			pre.Add(o.sim.PreIOs)
			overhead.Add(o.sim.OverheadIOs)
			post.Add(o.sim.PostIO)
			gain.Add(o.sim.PreIOs / o.sim.PostIO)
		}
		if c.dstc {
			res, err := core.DSTCExperiment{Config: c.cfg, Params: c.params, Transactions: dstcTransactions,
				Depth: dstcDepth, Seed: seed, Replications: reps, Workers: 1}.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []struct {
				what      string
				got, want *stats.Sample
			}{{"pre", &pre, &res.PreIOs}, {"overhead", &overhead, &res.OverheadIOs},
				{"post", &post, &res.PostIOs}, {"gain", &gain, &res.Gain}} {
				if sampleBits(p.got) != sampleBits(p.want) {
					t.Errorf("%s %s: drive %v, DSTCExperiment %v", name, p.what, p.got.Mean(), p.want.Mean())
				}
			}
			continue
		}
		res, err := core.Experiment{Config: c.cfg, Params: c.params, Seed: seed, Replications: reps, Workers: 1}.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			what      string
			got, want *stats.Sample
		}{{"ios", &ios, &res.IOs}, {"hit", &hit, &res.HitRatio}, {"resp", &resp, &res.RespMs}} {
			if sampleBits(p.got) != sampleBits(p.want) {
				t.Errorf("%s %s: drive %v, Experiment %v", name, p.what, p.got.Mean(), p.want.Mean())
			}
		}
	}
}

// TestSweepWarmMatchesStep pins the sweep-grid warm-up op to the timed op
// with its index, in a later sweep than the first.
func TestSweepWarmMatchesStep(t *testing.T) {
	g := newSweepGrid(7, true)
	outs, err := g.step(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const cell = 3
	w, err := g.warm(len(outs) + cell)
	if err != nil {
		t.Fatal(err)
	}
	if w.bad != "" || w.sim != outs[cell].sim {
		t.Errorf("warm-up op %+v (%s) != sweep 1 cell %d %+v", w.sim, w.bad, cell, outs[cell].sim)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestQuickSmoke runs every workload shrunk, untraced and traced, through
// the command line, and checks the last output line: the summary object
// with every BENCHMARK.json metric, all outputs correct.
func TestQuickSmoke(t *testing.T) {
	_, e2e, layer := readBenchmarkJSON(t)
	dir := t.TempDir()
	for _, w := range workloads {
		for trace, want := range []map[string]metricDef{e2e, layer} {
			var out bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.2",
				"--trace", []string{"0", "1"}[trace], "-quick", "-workdir", dir}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var summary map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("%s: last line: %v", w.name, err)
			}
			if len(summary) != 4 {
				t.Errorf("%s: summary keys %v, want correct, attempted, failed, metrics", w.name, summary)
			}
			var s struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
				t.Fatal(err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace %d: correct %t, %d of %d failed:\n%s", w.name, trace, s.Correct, s.Failed, s.Attempted, out.String())
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(s.Metrics), len(want))
			}
			for name, d := range want {
				m, ok := s.Metrics[name]
				if !ok || m.Unit != d.unit || !metricName.MatchString(name) {
					t.Errorf("%s trace %d: metric %q = %+v, want unit %q", w.name, trace, name, m, d.unit)
				}
				// Every metric is measured on every workload: no
				// placeholders, and only the traced run's overhead may be
				// negative.
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && name != "trace.overhead_pct") {
					t.Errorf("%s trace %d: metric %q = %v", w.name, trace, name, m.Value)
				}
			}
			if trace == 1 {
				sum := 0.0
				for name, m := range s.Metrics {
					if strings.HasSuffix(name, ".self_pct") || name == "runtime.bg_pct" {
						sum += m.Value
					}
				}
				if math.Abs(sum-100) > 1 {
					t.Errorf("%s: self shares sum to %v", w.name, sum)
				}
			}
		}
	}
}

func TestGroupTraces(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := groupTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 15, "ocb": 10, "lock": 50, bgPkg: 25}
	if len(got) != len(want) {
		t.Fatalf("shares %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("share %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
	}
}

// TestCompareFlagsRegressionAndDigest checks -compare against a results
// file that is slower beyond the bound and has a different digest.
func TestCompareFlagsRegressionAndDigest(t *testing.T) {
	dir := t.TempDir()
	rec := func(ms float64, digest string) *record {
		return &record{Workload: "paper-o2", Seed: 1, SimDigest: digest, Counts: map[string]float64{},
			Metrics: map[string]metric{"op_ms_p50": {Value: ms, Unit: "ms"}}}
	}
	write := func(name string, rs ...*record) string {
		data, err := json.Marshal(results{Runs: rs})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", rec(10, "x"), rec(10.2, "x"))
	same := write("same.json", rec(10.1, "x"))
	slow := write("slow.json", rec(13, "y"))
	spec := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if err := compareFiles(a, same, spec, &out); err != nil {
		t.Errorf("same commit flagged: %v\n%s", err, out.String())
	}
	out.Reset()
	err := compareFiles(a, slow, spec, &out)
	if err == nil || !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("slow run with another digest not flagged (err %v):\n%s", err, out.String())
	}
}
