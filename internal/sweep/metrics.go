package sweep

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Protocol selects what a sweep runs at each point.
type Protocol uint8

const (
	// Standard runs core.Experiment at each point: the paper's replicated
	// cold+hot batch protocol (§4.2.2), as used by Figures 6–11.
	Standard Protocol = iota
	// DSTCProtocol runs core.DSTCExperiment at each point: the §4.4
	// usage / reorganize / usage protocol, as used by Tables 6–8.
	DSTCProtocol
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case Standard:
		return "standard"
	case DSTCProtocol:
		return "dstc"
	default:
		return fmt.Sprintf("Protocol(%d)", p)
	}
}

// Metric identifies one collected simulation output. Each sweep point
// carries a Student-t stats.Interval per selected metric.
type Metric string

// Standard-protocol metrics (one replicated hot batch per point).
const (
	// IOs is the paper's headline metric: physical reads + writes.
	IOs Metric = "ios"
	// Reads is the physical read count.
	Reads Metric = "reads"
	// Writes is the physical write count.
	Writes Metric = "writes"
	// HitPct is the buffer hit rate in percent.
	HitPct Metric = "hitpct"
	// RespMs is the mean transaction response time in ms.
	RespMs Metric = "resp"
	// ThroughputTPS is the transaction throughput in tx/s.
	ThroughputTPS Metric = "tps"
	// NetMessages is the number of client–server messages.
	NetMessages Metric = "netmsgs"
	// NetBytes is the client–server traffic in bytes.
	NetBytes Metric = "netbytes"
	// LockWaits is the number of lock requests that had to queue.
	LockWaits Metric = "lockwaits"
	// ReorgIOs is the I/O count of reorganizations triggered mid-batch.
	ReorgIOs Metric = "reorgios"
	// BypassRate is the fraction of executed events dispatched through the
	// kernel's head-slot register instead of the calendar heap. It
	// describes the execution schedule (the fast path is bit-identical by
	// construction), not the simulated system.
	BypassRate Metric = "bypass"
)

// DSTC-protocol metrics (the §4.4 usage/reorganize/usage phases).
const (
	// PreIOs is the pre-clustering usage in I/Os.
	PreIOs Metric = "preios"
	// OverheadIOs is the reorganization overhead in I/Os.
	OverheadIOs Metric = "overheadios"
	// PostIOs is the post-clustering usage in I/Os.
	PostIOs Metric = "postios"
	// Gain is the pre/post usage ratio.
	Gain Metric = "gain"
	// Clusters is the number of clusters built (Table 7).
	Clusters Metric = "clusters"
	// ObjPerCluster is the mean number of objects per cluster (Table 7).
	ObjPerCluster Metric = "objperclus"
)

// metricDef describes how one metric is labelled and extracted.
type metricDef struct {
	label    string  // column header
	scale    float64 // applied to the interval (e.g. ratio → percent)
	standard func(*core.Result) *stats.Sample
	dstc     func(*core.DSTCResult) *stats.Sample
}

var metricDefs = map[Metric]metricDef{
	IOs:           {label: "I/Os", scale: 1, standard: func(r *core.Result) *stats.Sample { return &r.IOs }},
	Reads:         {label: "reads", scale: 1, standard: func(r *core.Result) *stats.Sample { return &r.Reads }},
	Writes:        {label: "writes", scale: 1, standard: func(r *core.Result) *stats.Sample { return &r.Writes }},
	HitPct:        {label: "hit%", scale: 100, standard: func(r *core.Result) *stats.Sample { return &r.HitRatio }},
	RespMs:        {label: "resp ms", scale: 1, standard: func(r *core.Result) *stats.Sample { return &r.RespMs }},
	ThroughputTPS: {label: "tput tps", scale: 1, standard: func(r *core.Result) *stats.Sample { return &r.Throughput }},
	NetMessages:   {label: "net msgs", scale: 1, standard: func(r *core.Result) *stats.Sample { return &r.NetMessages }},
	NetBytes:      {label: "net bytes", scale: 1, standard: func(r *core.Result) *stats.Sample { return &r.NetBytes }},
	LockWaits:     {label: "lock waits", scale: 1, standard: func(r *core.Result) *stats.Sample { return &r.LockWaits }},
	ReorgIOs:      {label: "reorg I/Os", scale: 1, standard: func(r *core.Result) *stats.Sample { return &r.ReorgIOs }},
	BypassRate:    {label: "bypass", scale: 1, standard: func(r *core.Result) *stats.Sample { return &r.BypassRate }},

	PreIOs:        {label: "pre I/Os", scale: 1, dstc: func(r *core.DSTCResult) *stats.Sample { return &r.PreIOs }},
	OverheadIOs:   {label: "overhead I/Os", scale: 1, dstc: func(r *core.DSTCResult) *stats.Sample { return &r.OverheadIOs }},
	PostIOs:       {label: "post I/Os", scale: 1, dstc: func(r *core.DSTCResult) *stats.Sample { return &r.PostIOs }},
	Gain:          {label: "gain", scale: 1, dstc: func(r *core.DSTCResult) *stats.Sample { return &r.Gain }},
	Clusters:      {label: "clusters", scale: 1, dstc: func(r *core.DSTCResult) *stats.Sample { return &r.Clusters }},
	ObjPerCluster: {label: "obj/cluster", scale: 1, dstc: func(r *core.DSTCResult) *stats.Sample { return &r.ObjPerClus }},
}

// standardMetrics and dstcMetrics fix the canonical display order.
var standardMetrics = []Metric{IOs, Reads, Writes, HitPct, RespMs, ThroughputTPS, NetMessages, NetBytes, LockWaits, ReorgIOs, BypassRate}
var dstcMetrics = []Metric{PreIOs, OverheadIOs, PostIOs, Gain, Clusters, ObjPerCluster}

// Metrics returns every metric the given protocol collects, in canonical
// order. Callers may mutate the returned slice.
func Metrics(p Protocol) []Metric {
	var src []Metric
	if p == DSTCProtocol {
		src = dstcMetrics
	} else {
		src = standardMetrics
	}
	return append([]Metric(nil), src...)
}

// Label returns the display label ("I/Os", "hit%", …); unknown metrics
// label as themselves.
func (m Metric) Label() string {
	if d, ok := metricDefs[m]; ok {
		return d.label
	}
	return string(m)
}

// ValidFor reports whether the protocol collects this metric.
func (m Metric) ValidFor(p Protocol) bool {
	d, ok := metricDefs[m]
	if !ok {
		return false
	}
	if p == DSTCProtocol {
		return d.dstc != nil
	}
	return d.standard != nil
}

// interval extracts the metric's Student-t interval from whichever result
// the protocol produced, applying the metric's display scale to both the
// mean and the half-width.
func (m Metric) interval(res *core.Result, dstc *core.DSTCResult, confidence float64) stats.Interval {
	d := metricDefs[m]
	var s *stats.Sample
	if dstc != nil {
		s = d.dstc(dstc)
	} else {
		s = d.standard(res)
	}
	ci := stats.ConfidenceInterval(s, confidence)
	ci.Mean *= d.scale
	ci.HalfWidth *= d.scale
	return ci
}

// ParseMetrics parses a comma-separated metric list ("ios,resp,tps")
// against the protocol's metric set. An empty list selects every metric of
// the protocol.
func ParseMetrics(list string, p Protocol) ([]Metric, error) {
	if strings.TrimSpace(list) == "" {
		return Metrics(p), nil
	}
	var out []Metric
	for _, tok := range strings.Split(list, ",") {
		m := Metric(strings.ToLower(strings.TrimSpace(tok)))
		if m == "" {
			continue
		}
		if !m.ValidFor(p) {
			return nil, fmt.Errorf("sweep: unknown %s metric %q (have %s)",
				p, m, strings.Join(metricNames(p), ","))
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty metric list %q", list)
	}
	return out, nil
}

func metricNames(p Protocol) []string {
	ms := Metrics(p)
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = string(m)
	}
	return names
}
