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

// ParamValue is one typed parameter value: the unit every axis point
// carries and every Param.Apply consumes. Numeric kinds use Num, enums use
// Str (canonical registry spelling), bools use Bit.
type ParamValue struct {
	Kind Kind
	Num  float64
	Str  string
	Bit  bool
}

// NumValue returns a numeric value (used for both KindNumeric and
// KindInteger parameters; integer parameters round on application).
func NumValue(v float64) ParamValue { return ParamValue{Kind: KindNumeric, Num: v} }

// IntValue returns an integer value.
func IntValue(v int) ParamValue { return ParamValue{Kind: KindInteger, Num: float64(v)} }

// EnumValue returns an enum value. The string should be a canonical choice
// of the target parameter (ParamValueAxis canonicalizes on construction).
func EnumValue(s string) ParamValue { return ParamValue{Kind: KindEnum, Str: s} }

// BoolValue returns a switch value.
func BoolValue(b bool) ParamValue { return ParamValue{Kind: KindBool, Bit: b} }

// Float returns the value's numeric axis position: the number itself for
// numeric kinds, 0/1 for bools. Enums have no intrinsic position (axes
// place them by index) and return 0.
func (v ParamValue) Float() float64 {
	switch v.Kind {
	case KindBool:
		if v.Bit {
			return 1
		}
		return 0
	case KindEnum:
		return 0
	default:
		return v.Num
	}
}

// String returns the value's display label.
func (v ParamValue) String() string {
	switch v.Kind {
	case KindEnum:
		return v.Str
	case KindBool:
		if v.Bit {
			return "on"
		}
		return "off"
	case KindInteger:
		return strconv.FormatFloat(math.Round(v.Num), 'f', -1, 64)
	default:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
}

// Param is one sweepable parameter: a Table 3 system knob or an OCB
// workload knob, addressable by name from the CLI
// (-sweep name=lo:hi:step, -sweep name=A,B,C) and from library code
// (ParamAxis, EnumAxis).
type Param struct {
	// Name is the CLI-facing identifier (lower case).
	Name string
	// Doc is a one-line description with the paper's parameter code.
	Doc string
	// Kind is the value domain (numeric, integer, enum, bool).
	Kind Kind
	// Choices lists the legal values of an enum parameter, in canonical
	// spelling and display order; nil for other kinds.
	Choices []string
	// Generative marks parameters that feed ocb workload/base generation;
	// axes over them regenerate bases per point and are ineligible for
	// base sharing.
	Generative bool
	// Apply writes value v into the configuration/parameters.
	Apply func(cfg *core.Config, p *ocb.Params, v ParamValue)
}

// numParam registers a continuous Table 3 / OCB knob.
func numParam(name, doc string, generative bool, apply func(*core.Config, *ocb.Params, float64)) Param {
	return Param{Name: name, Doc: doc, Kind: KindNumeric, Generative: generative,
		Apply: func(cfg *core.Config, p *ocb.Params, v ParamValue) { apply(cfg, p, v.Num) }}
}

// intParam registers an integer-valued knob; applications round.
func intParam(name, doc string, generative bool, apply func(*core.Config, *ocb.Params, int)) Param {
	return Param{Name: name, Doc: doc, Kind: KindInteger, Generative: generative,
		Apply: func(cfg *core.Config, p *ocb.Params, v ParamValue) { apply(cfg, p, int(math.Round(v.Num))) }}
}

// enumParam registers a categorical knob over the given canonical choices.
func enumParam(name, doc string, choices []string, apply func(*core.Config, *ocb.Params, string)) Param {
	return Param{Name: name, Doc: doc, Kind: KindEnum, Choices: choices,
		Apply: func(cfg *core.Config, p *ocb.Params, v ParamValue) { apply(cfg, p, v.Str) }}
}

// boolParam registers an on/off switch.
func boolParam(name, doc string, apply func(*core.Config, *ocb.Params, bool)) Param {
	return Param{Name: name, Doc: doc, Kind: KindBool,
		Apply: func(cfg *core.Config, p *ocb.Params, v ParamValue) { apply(cfg, p, v.Bit) }}
}

// asGenerative marks a parameter as feeding object-base generation (for
// kinds whose constructor takes no generative flag).
func asGenerative(p Param) Param {
	p.Generative = true
	return p
}

// Canonical enum choice lists. SystemClasses and Placements use
// CLI-friendly lower-case names; buffer policies keep their PGREP
// spelling and come from buffer.PolicyNames.
var (
	systemClassChoices = []string{"centralized", "objectserver", "pageserver", "dbserver"}
	placementChoices   = []string{"sequential", "optimized"}
	clusteringChoices  = []string{"none", "dstc", "greedygraph"}
	prefetchChoices    = []string{"none", "oneahead"}
	layoutChoices      = []string{"eager", "eagerv2", "stream"}
)

var systemClassByName = map[string]core.SystemClass{
	"centralized":  core.Centralized,
	"objectserver": core.ObjectServer,
	"pageserver":   core.PageServer,
	"dbserver":     core.DBServer,
}

var placementByName = map[string]storage.Placement{
	"sequential": storage.Sequential,
	"optimized":  storage.OptimizedSequential,
}

var clusteringByName = map[string]core.ClusteringKind{
	"none":        core.NoClustering,
	"dstc":        core.DSTC,
	"greedygraph": core.GreedyGraph,
}

var prefetchByName = map[string]core.PrefetchKind{
	"none":     core.NoPrefetch,
	"oneahead": core.OneAhead,
}

var layoutByName = map[string]ocb.Layout{
	"eager":   ocb.LayoutEager,
	"eagerv2": ocb.LayoutEagerV2,
	"stream":  ocb.LayoutStream,
}

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

	enumParam("sysclass", "system class architecture (SYSCLASS)", systemClassChoices,
		func(cfg *core.Config, _ *ocb.Params, v string) { cfg.System = systemClassByName[v] }),
	enumParam("pgrep", "buffer page replacement policy (PGREP)", buffer.PolicyNames(),
		func(cfg *core.Config, _ *ocb.Params, v string) { cfg.BufferPolicy = v }),
	enumParam("initpl", "initial object placement (INITPL)", placementChoices,
		func(cfg *core.Config, _ *ocb.Params, v string) { cfg.Placement = placementByName[v] }),
	enumParam("clustp", "clustering policy module (CLUSTP)", clusteringChoices,
		func(cfg *core.Config, _ *ocb.Params, v string) { cfg.Clustering = clusteringByName[v] }),
	enumParam("prefetch", "prefetching policy (PREFETCH)", prefetchChoices,
		func(cfg *core.Config, _ *ocb.Params, v string) { cfg.Prefetch = prefetchByName[v] }),
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
	asGenerative(enumParam("dblayout", "object-base generation layout (eager/eagerv2/stream; v2 layouts are bit-identical to each other)", layoutChoices,
		func(_ *core.Config, p *ocb.Params, v string) { p.Layout = layoutByName[v] })),
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

// canonicalChoice matches tok case-insensitively against the parameter's
// choice list, returning the canonical spelling.
func (p Param) canonicalChoice(tok string) (string, error) {
	for _, c := range p.Choices {
		if strings.EqualFold(c, strings.TrimSpace(tok)) {
			return c, nil
		}
	}
	return "", fmt.Errorf("parameter %q has no choice %q (have %s)",
		p.Name, tok, strings.Join(p.Choices, ","))
}

// ParamValueAxis builds an axis sweeping the named parameter over typed
// values — the general constructor behind ParamAxis (numeric values) and
// EnumAxis (choice lists). Point i uses SeedDelta i, so points draw
// decorrelated random streams regardless of the value scale; enum and bool
// points take their axis position X from the value's index. NaN is refused
// for every parameter, and a value outside the int range (±Inf among them)
// for integer ones; Sweep.Validate judges +Inf.
func ParamValueAxis(name string, values []ParamValue) (Axis, error) {
	param, ok := LookupParam(name)
	if !ok {
		return Axis{}, fmt.Errorf("sweep: unknown parameter %q (have %s)", name, strings.Join(paramNames(), ","))
	}
	if len(values) == 0 {
		return Axis{}, fmt.Errorf("sweep: no values for parameter %q", name)
	}
	axis := Axis{Name: param.Name, Generative: param.Generative}
	seen := make(map[ParamValue]bool, len(values))
	for _, v := range values {
		v := v
		if (v.Kind == KindNumeric || v.Kind == KindInteger) &&
			(math.IsNaN(v.Num) || param.Kind == KindInteger && !inIntRange(math.Round(v.Num))) {
			return Axis{}, fmt.Errorf("sweep: parameter %q cannot take the value %v", param.Name, v.Num)
		}
		switch param.Kind {
		case KindEnum:
			if v.Kind != KindEnum {
				return Axis{}, fmt.Errorf("sweep: parameter %q is an enum; value %v is not", param.Name, v)
			}
			canon, err := param.canonicalChoice(v.Str)
			if err != nil {
				return Axis{}, fmt.Errorf("sweep: %w", err)
			}
			v.Str = canon
		case KindBool:
			switch v.Kind {
			case KindBool:
			case KindNumeric, KindInteger:
				// Numeric 0/1 coerces, easing ParamAxis use on switches.
				switch v.Num {
				case 0:
					v = BoolValue(false)
				case 1:
					v = BoolValue(true)
				default:
					return Axis{}, fmt.Errorf("sweep: parameter %q is a switch; value %v is not 0/1", param.Name, v.Num)
				}
			default:
				return Axis{}, fmt.Errorf("sweep: parameter %q is a switch; value %v is not", param.Name, v)
			}
		case KindInteger:
			if v.Kind != KindNumeric && v.Kind != KindInteger {
				return Axis{}, fmt.Errorf("sweep: parameter %q is numeric; value %v is not", param.Name, v)
			}
			// Rounding can collapse neighbours (mpl=1:3:0.5 → 1,2,2,3,3);
			// duplicate positions would rerun the same point under a
			// different seed, so they are dropped.
			v = ParamValue{Kind: KindInteger, Num: math.Round(v.Num)}
		default: // KindNumeric
			if v.Kind != KindNumeric && v.Kind != KindInteger {
				return Axis{}, fmt.Errorf("sweep: parameter %q is numeric; value %v is not", param.Name, v)
			}
			v = ParamValue{Kind: KindNumeric, Num: v.Num}
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		x := v.Float()
		label := ""
		if param.Kind == KindEnum || param.Kind == KindBool {
			// Categorical axis positions are list indices; the label carries
			// the choice.
			x = float64(len(axis.Points))
			label = v.String()
		}
		val := v
		axis.Points = append(axis.Points, Point{
			X:         x,
			Label:     label,
			SeedDelta: uint64(len(axis.Points)),
			Apply:     func(cfg *core.Config, p *ocb.Params) { param.Apply(cfg, p, val) },
		})
	}
	return axis, nil
}

// inIntRange reports whether the whole number x converts to an int
// exactly; ±2^(IntSize-1) are exact float64 values, and ±Inf lie outside.
func inIntRange(x float64) bool {
	return x >= -(1<<(strconv.IntSize-1)) && x < 1<<(strconv.IntSize-1)
}

// ParamAxis builds an axis sweeping the named parameter over the given
// numeric values (bool parameters accept 0/1). Enum parameters need
// EnumAxis or the name=A,B,C spec form.
func ParamAxis(name string, values []float64) (Axis, error) {
	vals := make([]ParamValue, len(values))
	for i, v := range values {
		vals[i] = NumValue(v)
	}
	return ParamValueAxis(name, vals)
}

// EnumAxis builds an axis sweeping an enum parameter over the given
// choices (case-insensitive; canonicalized against the registry). Passing
// no choices sweeps every registered choice of the parameter.
func EnumAxis(name string, choices ...string) (Axis, error) {
	if len(choices) == 0 {
		param, ok := LookupParam(name)
		if !ok {
			return Axis{}, fmt.Errorf("sweep: unknown parameter %q (have %s)", name, strings.Join(paramNames(), ","))
		}
		if param.Kind != KindEnum {
			return Axis{}, fmt.Errorf("sweep: parameter %q is %s, not an enum", param.Name, param.Kind)
		}
		choices = param.Choices
	}
	vals := make([]ParamValue, len(choices))
	for i, c := range choices {
		vals[i] = EnumValue(c)
	}
	return ParamValueAxis(name, vals)
}

// BoolAxis builds an on/off axis over a switch parameter.
func BoolAxis(name string, values ...bool) (Axis, error) {
	if len(values) == 0 {
		values = []bool{false, true}
	}
	vals := make([]ParamValue, len(values))
	for i, b := range values {
		vals[i] = BoolValue(b)
	}
	return ParamValueAxis(name, vals)
}

// ParseAxis compiles a CLI axis spec into an Axis. The accepted forms
// depend on the parameter's kind:
//
//	numeric/integer   name=lo:hi:step   inclusive range (step > 0)
//	                  name=v1,v2,v3     explicit value list
//	enum              name=A,B,C        choice list (case-insensitive)
//	                  name=all          every registered choice
//	bool              name=on,off       (also true/false/1/0; name=all)
func ParseAxis(spec string) (Axis, error) {
	name, vals, ok := strings.Cut(spec, "=")
	if !ok {
		return Axis{}, fmt.Errorf("sweep: axis spec %q is not name=values", spec)
	}
	param, found := LookupParam(name)
	if !found {
		return Axis{}, fmt.Errorf("sweep: unknown parameter %q (have %s)", strings.TrimSpace(name), strings.Join(paramNames(), ","))
	}
	switch param.Kind {
	case KindEnum:
		if strings.EqualFold(strings.TrimSpace(vals), "all") {
			return EnumAxis(param.Name)
		}
		choices, err := splitList(vals)
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: axis %q: %w", spec, err)
		}
		// EnumAxis errors already carry the parameter name and its legal
		// choices; no extra wrapping needed.
		return EnumAxis(param.Name, choices...)
	case KindBool:
		if strings.EqualFold(strings.TrimSpace(vals), "all") {
			return BoolAxis(param.Name)
		}
		toks, err := splitList(vals)
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: axis %q: %w", spec, err)
		}
		bools := make([]bool, len(toks))
		for i, tok := range toks {
			b, err := parseBool(tok)
			if err != nil {
				return Axis{}, fmt.Errorf("sweep: axis %q: %w", spec, err)
			}
			bools[i] = b
		}
		return BoolAxis(param.Name, bools...)
	default:
		values, err := parseValues(vals)
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: axis %q: %w", spec, err)
		}
		return ParamAxis(param.Name, values)
	}
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

// parseBool reads a switch token (on/off, true/false, 1/0, yes/no).
func parseBool(tok string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(tok)) {
	case "on", "true", "1", "yes":
		return true, nil
	case "off", "false", "0", "no":
		return false, nil
	default:
		return false, fmt.Errorf("bad switch value %q (on/off)", tok)
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
