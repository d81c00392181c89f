package sweep

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/ocb"
	"repro/internal/storage"
)

// Kind classifies a parameter's value domain. The paper's Table 3 mixes
// continuous knobs (NETTHRU, disk times), integer counts (BUFFSIZE,
// MULTILVL), categorical selectors (SYSCLASS, PGREP, INITPL, CLUSTP) and
// switches (physical OIDs on/off); the kind drives parsing, axis
// construction and display so every column of the table is sweepable
// through the same registry.
type Kind uint8

const (
	// KindNumeric is a continuous float64 parameter.
	KindNumeric Kind = iota
	// KindInteger is a numeric parameter rounded to whole values.
	KindInteger
	// KindEnum is a categorical parameter drawing from Param.Choices.
	KindEnum
	// KindBool is an on/off switch.
	KindBool
)

// String returns the kind name as shown by -sweep-params.
func (k Kind) String() string {
	switch k {
	case KindNumeric:
		return "numeric"
	case KindInteger:
		return "integer"
	case KindEnum:
		return "enum"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", k)
	}
}

// Param is one sweepable parameter: a Table 3 system knob or an OCB
// workload knob, addressable by name from the CLI and from library code
// (-sweep name=lo:hi:step, -sweep name=A,B,C, ParseAxis).
type Param struct {
	// Name is the CLI-facing identifier (lower case).
	Name string
	// Doc is a one-line description with the paper's parameter code.
	Doc string
	// Kind is the value domain (numeric, integer, enum, bool).
	Kind Kind
	// Choices lists the legal values of an enum parameter, in canonical
	// spelling and in the order of its field's constants; nil for other
	// kinds.
	Choices []string
	// Generative marks parameters that feed ocb workload/base generation;
	// axes over them regenerate bases per point and are ineligible for
	// base sharing.
	Generative bool
	// set writes one point's number into the configuration/parameters:
	// the value itself (whole for integer rows), the index of an enum
	// row's choice, or 0/1 for a switch.
	set func(cfg *core.Config, p *ocb.Params, v float64)
}

// numParam registers a continuous Table 3 / OCB knob.
func numParam(name, doc string, generative bool, set func(*core.Config, *ocb.Params, float64)) Param {
	return Param{Name: name, Doc: doc, Kind: KindNumeric, Generative: generative, set: set}
}

// intParam registers an integer-valued knob; ParseAxis rounds its values.
func intParam(name, doc string, generative bool, set func(*core.Config, *ocb.Params, int)) Param {
	return Param{Name: name, Doc: doc, Kind: KindInteger, Generative: generative,
		set: func(cfg *core.Config, p *ocb.Params, v float64) { set(cfg, p, int(v)) }}
}

// enumParam registers a categorical knob; set receives the index of the
// chosen entry of choices.
func enumParam(name, doc string, generative bool, choices []string, set func(*core.Config, *ocb.Params, int)) Param {
	return Param{Name: name, Doc: doc, Kind: KindEnum, Choices: choices, Generative: generative,
		set: func(cfg *core.Config, p *ocb.Params, v float64) { set(cfg, p, int(v)) }}
}

// boolParam registers an on/off switch.
func boolParam(name, doc string, set func(*core.Config, *ocb.Params, bool)) Param {
	return Param{Name: name, Doc: doc, Kind: KindBool,
		set: func(cfg *core.Config, p *ocb.Params, v float64) { set(cfg, p, v == 1) }}
}

// policyNames is PGREP's choice list, buffer.PolicyNames in its order.
var policyNames = buffer.PolicyNames()

// paramTable registers every sweepable parameter. Config-level knobs come
// first (Table 3 codes) — numeric, then the categorical/switch selectors —
// then the OCB generation knobs (all generative).
var paramTable = []Param{
	intParam("mpl", "multiprogramming level (MULTILVL)", false,
		func(cfg *core.Config, _ *ocb.Params, v int) { cfg.MPL = v }),
	intParam("users", "number of users (NUSERS)", false,
		func(cfg *core.Config, _ *ocb.Params, v int) { cfg.Users = v }),
	intParam("buffpages", "buffer size in pages (BUFFSIZE)", false,
		func(cfg *core.Config, _ *ocb.Params, v int) { cfg.BufferPages = v }),
	intParam("pagesize", "page size in bytes (PGSIZE)", false,
		func(cfg *core.Config, _ *ocb.Params, v int) { cfg.PageSize = v }),
	numParam("netthru", "network throughput in MB/s (NETTHRU)", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) { cfg.NetThroughputMBps = v }),
	numParam("netlat", "per-message network latency in ms", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) { cfg.NetLatencyMs = v }),
	numParam("thinktime", "user think time in ms", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) { cfg.ThinkTimeMs = v }),
	intParam("servercpus", "server processors (Table 1 passive resource)", false,
		func(cfg *core.Config, _ *ocb.Params, v int) { cfg.ServerCPUs = v }),
	numParam("objcpu", "CPU cost per object access in ms", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) { cfg.ObjectCPUMs = v }),
	numParam("getlock", "lock acquisition time in ms (GETLOCK)", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) { cfg.GetLockMs = v }),
	numParam("rellock", "lock release time in ms (RELLOCK)", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) { cfg.RelLockMs = v }),
	numParam("diskseek", "disk seek time in ms (DISKSEA)", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) { cfg.DiskSeekMs = v }),
	numParam("disklat", "disk latency in ms (DISKLAT)", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) { cfg.DiskLatencyMs = v }),
	numParam("disktra", "disk transfer time in ms (DISKTRA)", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) { cfg.DiskTransferMs = v }),

	// Enum rows list their choices in the order of their field's
	// constants, so a choice's index is its constant.
	enumParam("sysclass", "system class architecture (SYSCLASS)", false,
		[]string{"centralized", "objectserver", "pageserver", "dbserver"},
		func(cfg *core.Config, _ *ocb.Params, i int) { cfg.System = core.SystemClass(i) }),
	enumParam("pgrep", "buffer page replacement policy (PGREP)", false, policyNames,
		func(cfg *core.Config, _ *ocb.Params, i int) { cfg.BufferPolicy = policyNames[i] }),
	enumParam("initpl", "initial object placement (INITPL)", false, []string{"sequential", "optimized"},
		func(cfg *core.Config, _ *ocb.Params, i int) { cfg.Placement = storage.Placement(i) }),
	enumParam("clustp", "clustering policy module (CLUSTP)", false, []string{"none", "dstc", "greedygraph"},
		func(cfg *core.Config, _ *ocb.Params, i int) { cfg.Clustering = core.ClusteringKind(i) }),
	intParam("dstctrigger", "DSTC automatic trigger: reorganize once this many candidate objects exist (0 = never)", false,
		func(cfg *core.Config, _ *ocb.Params, v int) { cfg.DSTCParams.TriggerCandidates = v }),
	enumParam("prefetch", "prefetching policy (PREFETCH)", false, []string{"none", "oneahead"},
		func(cfg *core.Config, _ *ocb.Params, i int) { cfg.Prefetch = core.PrefetchKind(i) }),
	boolParam("physoids", "physical OIDs (Texas-style reference fixup on reorganization)",
		func(cfg *core.Config, _ *ocb.Params, v bool) { cfg.PhysicalOIDs = v }),
	// Failure-injection knobs (§5 extension module).
	numParam("mtbf", "server failure MTBF in ms (§5 extension; 0 = no failures)", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) {
			cfg.Failures.Enabled = v != 0
			cfg.Failures.MTBFMs = v
		}),
	numParam("repair", "mean failure repair time in ms (§5 extension)", false,
		func(cfg *core.Config, _ *ocb.Params, v float64) { cfg.Failures.MeanRepairMs = v }),

	intParam("no", "object-base instances (OCB NO)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.NO = v }),
	intParam("nc", "schema classes (OCB NC)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.NC = v }),
	intParam("maxnref", "max references per class (OCB MAXNREF)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.MaxNRef = v }),
	intParam("basesize", "base instance size in bytes (OCB BASESIZE)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.BaseSize = v }),
	intParam("hotn", "measured transactions (OCB HOTN)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.HotN = v }),
	intParam("coldn", "unmeasured cold transactions (OCB COLDN)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.ColdN = v }),
	numParam("writeprob", "per-access update probability", true,
		func(_ *core.Config, p *ocb.Params, v float64) { p.WriteProb = v }),
	intParam("setdepth", "set-oriented access depth (OCB SETDEPTH)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.SetDepth = v }),
	intParam("simdepth", "simple traversal depth (OCB SIMDEPTH)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.SimDepth = v }),
	intParam("hiedepth", "hierarchy traversal depth (OCB HIEDEPTH)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.HieDepth = v }),
	intParam("stodepth", "stochastic traversal depth (OCB STODEPTH)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.StoDepth = v }),
	intParam("hotroots", "hot traversal-root population (0 = unbounded)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.HotRootCount = v }),
	intParam("objlocality", "object reference locality (OCB OLOCREF)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.ObjectLocality = v }),
	intParam("classlocality", "class reference locality (OCB CLOCREF)", true,
		func(_ *core.Config, p *ocb.Params, v int) { p.ClassLocality = v }),
	numParam("hotskew", "Zipf skew of traversal-root draws over the hot set (0 = uniform)", true,
		func(_ *core.Config, p *ocb.Params, v float64) {
			if v == 0 {
				p.RootDist = ocb.Uniform
			} else {
				p.RootDist = ocb.Zipf
				p.ZipfTheta = v
			}
		}),
	enumParam("dblayout", "object-base generation layout (the v2 layouts are bit-identical to each other)", true,
		[]string{"eager", "eagerv2", "stream"},
		func(_ *core.Config, p *ocb.Params, i int) { p.Layout = ocb.Layout(i) }),
}

// Params lists every sweepable parameter, sorted by name.
func Params() []Param {
	out := append([]Param(nil), paramTable...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupParam finds a parameter by (case-insensitive) name.
func LookupParam(name string) (Param, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, p := range paramTable {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// ParseAxis compiles a CLI axis spec into an Axis, the one constructor of
// a registry axis. The accepted forms depend on the parameter's kind:
//
//	numeric/integer   name=lo:hi:step   inclusive range (step > 0)
//	                  name=v1,v2,v3     explicit value list
//	enum              name=A,B,C        choice list (case-insensitive)
//	                  name=all          every registered choice
//	bool              name=on,off       (also true/false/1/0; name=all)
//
// Each token becomes one number (see Param.set), and equal numbers
// collapse to the first: rounding can merge neighbours (mpl=1:3:0.5 →
// 1,2,2,3,3), and a repeated point would rerun under another seed. Point i
// uses SeedDelta i, so points draw decorrelated random streams whatever
// the value scale; enum and bool points take their position X from i and
// their Label from the choice. NaN is refused for every parameter, and a
// value outside the int range (±Inf among them) for integer ones;
// Sweep.Validate judges +Inf.
func ParseAxis(spec string) (Axis, error) {
	name, text, ok := strings.Cut(spec, "=")
	if !ok {
		return Axis{}, fmt.Errorf("sweep: axis spec %q is not name=values", spec)
	}
	param, found := LookupParam(name)
	if !found {
		return Axis{}, fmt.Errorf("sweep: unknown parameter %q (have %s)", strings.TrimSpace(name), strings.Join(paramNames(), ","))
	}
	values, err := param.parse(spec, text)
	if err != nil {
		return Axis{}, err
	}
	axis := Axis{Name: param.Name, Generative: param.Generative}
	seen := make(map[float64]bool, len(values))
	for _, v := range values {
		if param.Kind == KindInteger {
			v = math.Round(v)
		}
		if math.IsNaN(v) || param.Kind == KindInteger && !inIntRange(v) {
			return Axis{}, fmt.Errorf("sweep: parameter %q cannot take the value %v", param.Name, v)
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		i := len(axis.Points)
		pt := Point{X: v, SeedDelta: uint64(i)}
		switch param.Kind {
		case KindEnum:
			pt.X, pt.Label = float64(i), param.Choices[int(v)]
		case KindBool:
			pt.X, pt.Label = float64(i), [2]string{"off", "on"}[int(v)]
		}
		set, val := param.set, v
		pt.Apply = func(cfg *core.Config, p *ocb.Params) { set(cfg, p, val) }
		axis.Points = append(axis.Points, pt)
	}
	return axis, nil
}

// parse reads an axis spec's value text by the parameter's kind into one
// number per token. An unknown choice is refused in the parameter's
// words; any other malformed text in the spec's.
func (p Param) parse(spec, text string) ([]float64, error) {
	malformed := func(err error) error { return fmt.Errorf("sweep: axis %q: %w", spec, err) }
	if p.Kind == KindNumeric || p.Kind == KindInteger {
		values, err := parseValues(text)
		if err != nil {
			return nil, malformed(err)
		}
		return values, nil
	}
	if strings.EqualFold(strings.TrimSpace(text), "all") {
		n := len(p.Choices)
		if p.Kind == KindBool {
			n = 2
		}
		all := make([]float64, n)
		for i := range all {
			all[i] = float64(i)
		}
		return all, nil
	}
	toks, err := splitList(text)
	if err != nil {
		return nil, malformed(err)
	}
	values := make([]float64, len(toks))
	for i, tok := range toks {
		if p.Kind == KindBool {
			if values[i], err = parseBool(tok); err != nil {
				return nil, malformed(err)
			}
		} else if values[i] = float64(p.choiceIndex(tok)); values[i] < 0 {
			return nil, fmt.Errorf("sweep: parameter %q has no choice %q (have %s)",
				p.Name, tok, strings.Join(p.Choices, ","))
		}
	}
	return values, nil
}

// choiceIndex matches tok case-insensitively against the parameter's
// choice list; -1 when none matches.
func (p Param) choiceIndex(tok string) int {
	for i, c := range p.Choices {
		if strings.EqualFold(c, tok) {
			return i
		}
	}
	return -1
}

// inIntRange reports whether the whole number x converts to an int
// exactly; ±2^(IntSize-1) are exact float64 values, and ±Inf lie outside.
func inIntRange(x float64) bool {
	return x >= -(1<<(strconv.IntSize-1)) && x < 1<<(strconv.IntSize-1)
}

// splitList splits a comma list into trimmed non-empty tokens.
func splitList(s string) ([]string, error) {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		out = append(out, tok)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty value list")
	}
	return out, nil
}

// parseBool reads a switch token (on/off, true/false, 1/0, yes/no) as 1
// or 0.
func parseBool(tok string) (float64, error) {
	switch strings.ToLower(strings.TrimSpace(tok)) {
	case "on", "true", "1", "yes":
		return 1, nil
	case "off", "false", "0", "no":
		return 0, nil
	default:
		return 0, fmt.Errorf("bad switch value %q (on/off)", tok)
	}
}

// maxAxisPoints bounds how many points a range may expand to: one
// replicated experiment runs per point, so anything beyond this is a
// typo'd range, and rejecting it beats stalling while a billion-element
// slice builds.
const maxAxisPoints = 10000

func parseValues(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("empty value list")
	}
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("range %q is not lo:hi:step", s)
		}
		loStr, hiStr, stepStr := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), strings.TrimSpace(parts[2])
		// NaN and ±Inf parse as floats but make no range: reject them
		// before they reach the point count.
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		lo, err := strconv.ParseFloat(loStr, 64)
		if err != nil || !finite(lo) {
			return nil, fmt.Errorf("bad range start %q", parts[0])
		}
		hi, err := strconv.ParseFloat(hiStr, 64)
		if err != nil || !finite(hi) {
			return nil, fmt.Errorf("bad range end %q", parts[1])
		}
		step, err := strconv.ParseFloat(stepStr, 64)
		if err != nil || !finite(step) || step <= 0 {
			return nil, fmt.Errorf("bad range step %q (need > 0)", parts[2])
		}
		if hi < lo {
			return nil, fmt.Errorf("range %q runs backwards", s)
		}
		// Cap the count while it is still a float: (hi-lo)/step can exceed
		// the int range (or overflow to +Inf), and converting first would
		// wrap it.
		count := math.Floor((hi-lo)/step+1e-9) + 1
		if count > maxAxisPoints {
			return nil, fmt.Errorf("range %q expands to more than %d points", s, maxAxisPoints)
		}
		n := int(count)
		// Each value is lo + i·step rounded back to the inputs' decimal
		// precision, so 0:0.3:0.1 ends at 0.3, not 0.30000000000000004.
		// Exponent-notation bounds opt out of rounding entirely.
		prec := -1
		if dl, ds := decimals(loStr), decimals(stepStr); dl >= 0 && ds >= 0 {
			prec = dl
			if ds > prec {
				prec = ds
			}
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = roundTo(lo+float64(i)*step, prec)
		}
		return out, nil
	}
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty value list")
	}
	return out, nil
}

// decimals counts the digits after the decimal point in a plain decimal
// literal ("0.05" → 2); exponent notation opts out of precision rounding.
func decimals(s string) int {
	if strings.ContainsAny(s, "eE") {
		return -1
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return len(s) - i - 1
	}
	return 0
}

// roundTo rounds v to prec decimal places (no-op for out-of-range precs).
func roundTo(v float64, prec int) float64 {
	if prec < 0 || prec > 12 {
		return v
	}
	p := math.Pow(10, float64(prec))
	return math.Round(v*p) / p
}

func paramNames() []string {
	ps := Params()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
