package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// with the same units (bench_test.go keeps the two in step) and adds each
// end-to-end metric's regression bound.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced runs. Host times are at the reference speed (see calibrator);
// the record keeps them unscaled too.
var endToEnd = []metricDef{
	// Committed simulated transactions per host second.
	{"sim_tx_per_s", "1/s", "higher"},
	// Host time per op: one replication, or one sweep cell. Its p90 is kept
	// in the record, not here: on a shared host the tail follows the
	// neighbours, and on the reference box two sets of ten runs of the same
	// code spread 5% and 26% on it, past the largest bound a metric may
	// have.
	{"op_ms_p50", "ms", "lower"},
	// Building fresh state and running its warm-up op; median of the
	// set-ups.
	{"setup_s", "s", "lower"},
	// Peak resident set of one set-up started from a heap handed back to
	// the OS; median of the set-ups.
	{"peak_rss_mb", "MB", "lower"},
}

// layerPkgs are the packages whose CPU-profile self share is reported as
// <pkg>.self_pct; samples in any other repro/internal package (disk, stats,
// sweep, …, each under 1%) go to other.self_pct, and samples with no
// repro/internal frame at all to runtime.bg_pct, so the shares add up to
// 100.
var layerPkgs = []string{"sim", "core", "lock", "buffer", "storage", "ocb", "rng", "cluster"}

// perLayer are the traced run's metrics. Every one is measured on every
// workload; values that exist on some workloads only (the spans, and the
// counts that counts leaves out elsewhere) go to the record, not the
// summary.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"buffer.hit_ratio", "ratio", "higher"},
		{"disk.reads_per_tx", "io/tx", "lower"},
		{"disk.writes_per_tx", "io/tx", "lower"},
		{"lock.waits_per_tx", "count/tx", "lower"},
		{"sim.bypass_rate", "ratio", "higher"},
		{"sim.calendar_peak", "count", "lower"},
		{"runtime.alloc_kb_per_op", "KB", "lower"},
	}
	for _, p := range layerPkgs {
		defs = append(defs, metricDef{p + ".self_pct", "%", "lower"})
	}
	return append(defs,
		metricDef{"other.self_pct", "%", "lower"},
		metricDef{"runtime.bg_pct", "%", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// probe is what a runner reports each timed op to: the op's end, which runs
// one host-speed kernel sample, and on traced runs the benchmark-side host
// spans around its layer calls. A nil *probe records nothing (warm-up ops),
// and one with nil span maps skips the clock reads (untraced runs).
type probe struct {
	cal *calibrator
	cur map[string]float64
	per map[string][]float64
}

func newProbe(cal *calibrator, traced bool) *probe {
	p := &probe{cal: cal}
	if traced {
		p.cur, p.per = map[string]float64{}, map[string][]float64{}
	}
	return p
}

func (p *probe) start() time.Time {
	if p == nil || p.cur == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *probe) stop(name string, t0 time.Time) {
	if p != nil && p.cur != nil {
		p.cur[name] += msSince(t0)
	}
}

func (p *probe) add(name string, ms float64) {
	if p != nil && p.cur != nil {
		p.cur[name] += ms
	}
}

// endOp closes the current op, after its host time is taken: each span's
// total within the op becomes one sample, and the kernel runs once. It
// returns the kernel run's index (-1 without a probe).
func (p *probe) endOp() int {
	if p == nil {
		return -1
	}
	for k, v := range p.cur {
		p.per[k] = append(p.per[k], v)
		delete(p.cur, k)
	}
	return p.cal.sample()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// digest hashes the simulated outputs of ops in op order.
func digest(ops []opOut) string {
	h := sha256.New()
	for i := range ops {
		// Writing a fixed-size struct to a hash cannot fail.
		_ = binary.Write(h, binary.LittleEndian, ops[i].sim)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// counts computes the modelled-side counts of ops, the workload's window:
// they repeat exactly for a seed, and a speed-only change must leave them
// identical. A count the workload cannot measure is left out: commit share
// where results carry no aborts (sweep-grid), residency where the object
// base is not visible (sweep-grid), the cluster counts outside dstc-reorg,
// and paper_err_pct where the paper has no matching point.
func counts(w workload, ops []opOut) map[string]float64 {
	var tx, aborts, reads, writes, waits, hit, bypass, overhead, gain, ios, post float64
	peak, resident := 0, int64(0)
	for _, o := range ops {
		s := o.sim
		tx += s.Tx
		aborts += s.Aborts
		reads += s.Reads
		writes += s.Writes
		waits += s.LockWaits
		hit += s.HitRatio
		bypass += o.bypass
		overhead += s.OverheadIOs
		ios += s.Reads + s.Writes
		if s.PostIO > 0 {
			post += s.PostIO
			gain += s.PreIOs / s.PostIO
		}
		if o.calPeak > peak {
			peak = o.calPeak
		}
		if o.resident < 0 || resident < 0 {
			resident = -1
		} else if o.resident > resident {
			resident = o.resident
		}
	}
	n := float64(len(ops))
	c := map[string]float64{
		"buffer.hit_ratio":   hit / n,
		"disk.reads_per_tx":  reads / tx,
		"disk.writes_per_tx": writes / tx,
		"lock.waits_per_tx":  waits / tx,
		"sim.bypass_rate":    bypass / n,
		"sim.calendar_peak":  float64(peak),
	}
	if aborts >= 0 {
		c["lock.commit_share"] = tx / (tx + aborts)
	}
	if resident >= 0 {
		c["ocb.resident_mb"] = float64(resident) / 1e6
	}
	dstc := post > 0
	if dstc {
		c["cluster.overhead_ios"] = overhead / n
		c["cluster.gain"] = gain / n
	}
	if w.ref > 0 {
		got := ios / n
		if dstc {
			got = gain / n
		}
		c["paper_err_pct"] = math.Abs(got-w.ref) / w.ref * 100
	}
	return c
}
