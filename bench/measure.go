package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many fresh set-ups one run times; setup_s and
// peak_rss_mb are their medians, because a single set-up is one noisy
// sample.
const setupRuns = 40

// quickWindow and quickSetups replace workload.window and setupRuns under
// -quick.
const quickWindow, quickSetups = 3, 3

// runConfig is one benchmark run's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	workdir string // where the traced run writes its CPU profile
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run of one workload produced.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	SimDigest string            `json:"sim_digest"`
	// Counts are the window's modelled-side counts, including those only
	// some workloads define.
	Counts map[string]float64 `json:"counts"`
	// OpMsP90 is the untraced run's p90 host ms per op at the reference
	// speed: reported with its sample count (Attempted), but not bounded.
	OpMsP90 float64 `json:"op_ms_p90,omitempty"`
	// Raw are the untraced run's host times without host-speed scaling,
	// and Scale the factor that scaled them.
	Raw   map[string]float64 `json:"raw,omitempty"`
	Scale float64            `json:"scale,omitempty"`
	// Spans are the traced run's p50 ms per op of each benchmark-side span
	// the workload opens.
	Spans    map[string]float64 `json:"spans,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// phase is one timed closed loop: the ops it ran and the bytes it
// allocated.
type phase struct {
	ops        []opOut
	steps      int
	allocBytes uint64
}

// runPhase runs steps first, first+1, … until at least minOps ops have run
// and budget has elapsed; the next step starts only when the previous one
// returns.
func runPhase(d runner, first, minOps int, budget time.Duration, p *probe) (phase, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var ph phase
	t0 := time.Now()
	for len(ph.ops) < minOps || time.Since(t0) < budget {
		outs, err := d.step(first+ph.steps, p)
		if err != nil {
			return ph, err
		}
		ph.ops = append(ph.ops, outs...)
		ph.steps++
	}
	runtime.ReadMemStats(&ms)
	ph.allocBytes = ms.TotalAlloc - alloc0
	return ph, nil
}

// txPerSecond is committed simulated transactions per host second of ops,
// given their host times.
func txPerSecond(ops []opOut, hostMs []float64) float64 {
	var tx, ms float64
	for i, o := range ops {
		tx += o.sim.Tx
		ms += hostMs[i]
	}
	return tx / (ms / 1000)
}

// setup is one timed set-up: fresh state built and its warm-up op run.
type setup struct {
	seconds float64
	cal     int     // kernel run that followed it
	rssMB   float64 // peak resident set during it
	warm    opOut
}

// setUp times setupRuns set-ups and returns the last one's runner. Each
// starts from a heap handed back to the OS, with the peak-RSS mark reset,
// and runs its own warm-up op k, so the medians span several replications
// instead of hanging on one. A set-up grows the heap from nothing, so it
// ends with a collection under way; the kernel waits for one to finish.
func setUp(w workload, rc runConfig, cal *calibrator) (runner, []setup, error) {
	var d runner
	setups := make([]setup, setupRuns)
	if rc.quick {
		setups = setups[:quickSetups]
	}
	for k := range setups {
		d = nil
		debug.FreeOSMemory()
		// Where Linux refuses the reset, the mark covers the process so
		// far.
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
		t := time.Now()
		d = w.newRunner(rc.seed, rc.quick)
		out, err := d.warm(k)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		su := &setups[k]
		su.seconds = time.Since(t).Seconds()
		runtime.GC()
		su.cal = cal.sample()
		su.warm = out
		if su.rssMB, err = peakRSSMB(); err != nil {
			return nil, nil, err
		}
	}
	return d, setups, nil
}

// measure runs workload w once: set-ups, the timed loop (split into an
// untraced and a profiled half when tracing), and the reproduction checks.
func measure(w workload, rc runConfig) (*record, error) {
	cal := newCalibrator()
	d, setups, err := setUp(w, rc, cal)
	if err != nil {
		return nil, err
	}

	window := w.window
	if rc.quick {
		window = quickWindow
	}
	budget := time.Duration(rc.seconds * float64(time.Second))
	if rc.trace {
		budget /= 2
	}
	untraced, err := runPhase(d, 0, window, budget, newProbe(cal, false))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	ops := untraced.ops
	rec := &record{
		Workload:  w.name,
		Seed:      rc.seed,
		Trace:     rc.trace,
		Metrics:   map[string]metric{},
		SimDigest: digest(ops[:window]),
		Counts:    counts(w, ops[:window]),
	}

	var traced phase
	var sp *probe
	var shares map[string]float64
	if rc.trace {
		sp = newProbe(cal, true)
		prof := filepath.Join(rc.workdir, "cpu-"+w.name+".pprof")
		if traced, err = profiled(prof, func() (phase, error) {
			return runPhase(d, untraced.steps, 1, budget, sp)
		}); err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		if shares, err = layerShares(prof); err != nil {
			return nil, err
		}
		ops = append(ops, traced.ops...)
	}

	fail := func(format string, args ...any) {
		rec.Failed++
		rec.Failures = append(rec.Failures, fmt.Sprintf(format, args...))
	}
	for i, o := range ops {
		if o.bad != "" {
			fail("op %d: %s", i, o.bad)
		}
	}
	// Each warm-up op, run on fresh state, must equal the timed op with its
	// index, run on state reset in place; and op 0 rerun after the loop
	// must equal it too, so nothing leaks from op to op.
	for k := 0; k < len(setups) && k < len(ops); k++ {
		if setups[k].warm.sim != ops[k].sim {
			fail("warm-up op %d %+v != timed op %+v", k, setups[k].warm.sim, ops[k].sim)
		}
	}
	rerun, err := d.warm(0)
	if err != nil {
		return nil, fmt.Errorf("%s rerun: %w", w.name, err)
	}
	if rerun.sim != ops[0].sim {
		fail("op 0 rerun %+v != timed %+v", rerun.sim, ops[0].sim)
	}
	rec.Attempted = len(ops) + 1
	rec.Correct = rec.Failed == 0

	if !rc.trace {
		raw, scaled := hostTimes(ops, cal)
		setupRaw := make([]float64, len(setups))
		setupScaled := make([]float64, len(setups))
		rss := make([]float64, len(setups))
		for k, su := range setups {
			setupRaw[k] = su.seconds
			setupScaled[k] = su.seconds * cal.scaleAt(su.cal)
			rss[k] = su.rssMB
		}
		rec.Raw = map[string]float64{
			"sim_tx_per_s": txPerSecond(ops, raw),
			"op_ms_p50":    quantile(raw, 0.5),
			"op_ms_p90":    quantile(raw, 0.9),
			"setup_s":      quantile(setupRaw, 0.5),
		}
		rec.Scale = cal.scale()
		rec.put("sim_tx_per_s", txPerSecond(ops, scaled))
		rec.put("op_ms_p50", quantile(scaled, 0.5))
		rec.OpMsP90 = quantile(scaled, 0.9)
		rec.put("setup_s", quantile(setupScaled, 0.5))
		rec.put("peak_rss_mb", quantile(rss, 0.5))
		return rec, nil
	}

	rec.Spans = map[string]float64{}
	for name, xs := range sp.per {
		rec.Spans[name] = quantile(xs, 0.5) * cal.scale()
	}
	for _, d := range perLayer {
		if v, ok := rec.Counts[d.name]; ok {
			rec.put(d.name, v)
		}
	}
	rec.put("runtime.alloc_kb_per_op", float64(untraced.allocBytes)/float64(len(untraced.ops))/1024)
	other := 0.0
	for p, v := range shares {
		if !slices.Contains(layerPkgs, p) && p != bgPkg {
			other += v
		}
	}
	for _, p := range layerPkgs {
		rec.put(p+".self_pct", shares[p])
	}
	rec.put("other.self_pct", other)
	rec.put("runtime.bg_pct", shares[bgPkg])
	_, u := hostTimes(untraced.ops, cal)
	_, t := hostTimes(traced.ops, cal)
	rec.put("trace.overhead_pct", (txPerSecond(untraced.ops, u)/txPerSecond(traced.ops, t)-1)*100)
	return rec, nil
}

// hostTimes returns the ops' host times as measured and at the reference
// speed.
func hostTimes(ops []opOut, cal *calibrator) (raw, scaled []float64) {
	raw, scaled = make([]float64, len(ops)), make([]float64, len(ops))
	for i, o := range ops {
		raw[i] = o.hostMs
		scaled[i] = o.hostMs * cal.scaleAt(o.cal)
	}
	return raw, scaled
}

// put records a metric under its declared unit.
func (r *record) put(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("undeclared metric " + name)
}

// profiled runs fn under the CPU profiler, writing the profile to path.
func profiled(path string, fn func() (phase, error)) (phase, error) {
	f, err := os.Create(path)
	if err != nil {
		return phase{}, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return phase{}, err
	}
	p, err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return p, err
	}
	return p, f.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
