package sweep

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
)

func TestParseAxisRange(t *testing.T) {
	axis, err := ParseAxis("mpl=1:9:4")
	if err != nil {
		t.Fatal(err)
	}
	if axis.Name != "mpl" || axis.Generative {
		t.Fatalf("axis = %+v", axis)
	}
	want := []float64{1, 5, 9}
	if len(axis.Points) != len(want) {
		t.Fatalf("points = %d, want %d", len(axis.Points), len(want))
	}
	for i, v := range want {
		pt := axis.Points[i]
		if pt.X != v || pt.SeedDelta != uint64(i) {
			t.Errorf("point %d = {X:%v SeedDelta:%d}, want {X:%v SeedDelta:%d}", i, pt.X, pt.SeedDelta, v, i)
		}
		cfg := core.DefaultConfig()
		p := ocb.DefaultParams()
		pt.Apply(&cfg, &p)
		if cfg.MPL != int(v) {
			t.Errorf("point %d applied MPL %d, want %d", i, cfg.MPL, int(v))
		}
	}
}

func TestParseAxisList(t *testing.T) {
	axis, err := ParseAxis("writeprob=0,0.05,0.2")
	if err != nil {
		t.Fatal(err)
	}
	if !axis.Generative {
		t.Error("writeprob axis must be generative (feeds workload generation)")
	}
	if len(axis.Points) != 3 || axis.Points[2].X != 0.2 {
		t.Fatalf("axis = %+v", axis)
	}
	cfg := core.DefaultConfig()
	p := ocb.DefaultParams()
	axis.Points[1].Apply(&cfg, &p)
	if p.WriteProb != 0.05 {
		t.Errorf("WriteProb = %v", p.WriteProb)
	}
	if axis.Points[1].label() != "0.05" {
		t.Errorf("label = %q", axis.Points[1].label())
	}
}

// TestParseAxisIntegerDedup: fractional steps over integer parameters must
// not yield duplicate axis positions (mpl=1:3:0.5 rounds to 1,2,2,3,3).
func TestParseAxisIntegerDedup(t *testing.T) {
	axis, err := ParseAxis("mpl=1:3:0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	if len(axis.Points) != len(want) {
		t.Fatalf("points = %+v, want X %v", axis.Points, want)
	}
	for i, v := range want {
		if axis.Points[i].X != v || axis.Points[i].SeedDelta != uint64(i) {
			t.Errorf("point %d = {X:%v SeedDelta:%d}, want {X:%v SeedDelta:%d}",
				i, axis.Points[i].X, axis.Points[i].SeedDelta, v, i)
		}
	}
	// Explicit duplicate values collapse too.
	axis, err = ParseAxis("writeprob=0.1,0.1,0.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(axis.Points) != 2 {
		t.Fatalf("points = %+v", axis.Points)
	}
}

// TestParseAxisRangePrecision: range expansion must not leak float
// accumulation into the endpoint's value or label.
func TestParseAxisRangePrecision(t *testing.T) {
	axis, err := ParseAxis("writeprob=0:0.3:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(axis.Points) != 4 {
		t.Fatalf("points = %+v", axis.Points)
	}
	last := axis.Points[3]
	if last.X != 0.3 {
		t.Errorf("endpoint X = %v, want 0.3", last.X)
	}
	if last.label() != "0.3" {
		t.Errorf("endpoint label = %q, want \"0.3\"", last.label())
	}
}

// TestParseAxisRangeCap: a typo'd range must fail fast, not build a
// billion-point slice.
func TestParseAxisRangeCap(t *testing.T) {
	if _, err := ParseAxis("mpl=1:1000000000:1"); err == nil || !strings.Contains(err.Error(), "points") {
		t.Errorf("huge range accepted: %v", err)
	}
	if _, err := ParseAxis("mpl=1:10000:1"); err != nil {
		t.Errorf("10000-point range rejected: %v", err)
	}
}

func TestParseAxisErrors(t *testing.T) {
	for _, spec := range []string{
		"",                  // no '='
		"mpl",               // no '='
		"mpl=",              // empty values
		"mpl=1:2",           // malformed range
		"mpl=1:2:0",         // zero step
		"mpl=5:1:1",         // backwards
		"mpl=x",             // bad value
		"unknown=1:2:1",     // unknown parameter
		"mpl=1:2:1:4",       // too many fields
		"mpl=0:inf:1",       // infinite end
		"mpl=1:4:nan",       // NaN step
		"mpl=nan:4:1",       // NaN start
		"mpl=0:1e300:1e-10", // point count beyond the int range
	} {
		if _, err := ParseAxis(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestIntegerValuePastIntRange: an integer parameter refuses a value the
// int type cannot hold and names it as given, not as the value the
// conversion would wrap it to; the largest float64 below the limit builds.
func TestIntegerValuePastIntRange(t *testing.T) {
	for spec, want := range map[string]string{
		"mpl=1e19":       `sweep: parameter "mpl" cannot take the value 1e+19`,
		"buffpages=1e19": `sweep: parameter "buffpages" cannot take the value 1e+19`,
		"no=-1e19":       `sweep: parameter "no" cannot take the value -1e+19`,
		"mpl=1,2,1e300":  `sweep: parameter "mpl" cannot take the value 1e+300`,
	} {
		if _, err := ParseAxis(spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want %q", spec, err, want)
		}
	}
	limit := math.Ldexp(1, strconv.IntSize-1)
	// %v prints the shortest text that parses back to the same float64.
	if _, err := ParseAxis(fmt.Sprintf("mpl=%v", limit)); err == nil {
		t.Errorf("mpl=%g (the int limit) accepted", limit)
	}
	if _, err := ParseAxis(fmt.Sprintf("mpl=%v,%v", math.Nextafter(limit, 0), -limit)); err != nil {
		t.Errorf("whole numbers inside the int range refused: %v", err)
	}
}

func TestParamsRegistry(t *testing.T) {
	ps := Params()
	if len(ps) < 20 {
		t.Fatalf("registry has only %d parameters", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Name >= ps[i].Name {
			t.Fatalf("registry not sorted at %q", ps[i].Name)
		}
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate parameter %q", p.Name)
		}
		seen[p.Name] = true
		if p.Doc == "" || p.set == nil {
			t.Fatalf("parameter %q missing doc or setter", p.Name)
		}
		if p.Kind == KindEnum && len(p.Choices) < 2 {
			t.Fatalf("enum parameter %q has choices %v", p.Name, p.Choices)
		}
		if p.Kind != KindEnum && p.Choices != nil {
			t.Fatalf("non-enum parameter %q carries choices", p.Name)
		}
		if p.Generative && p.Kind == KindBool {
			t.Fatalf("generative parameter %q has unexpected kind %s", p.Name, p.Kind)
		}
	}
	for _, name := range []string{"mpl", "users", "buffpages", "no", "nc", "writeprob", "netthru"} {
		if _, ok := LookupParam(name); !ok {
			t.Errorf("parameter %q missing from registry", name)
		}
	}
	if _, ok := LookupParam("MPL"); !ok {
		t.Error("lookup not case-insensitive")
	}
	// The typed Table 3 selectors are registered with the right kinds.
	for name, kind := range map[string]Kind{
		"mpl": KindInteger, "netthru": KindNumeric,
		"sysclass": KindEnum, "pgrep": KindEnum, "initpl": KindEnum,
		"clustp": KindEnum, "prefetch": KindEnum,
		"physoids": KindBool,
	} {
		p, ok := LookupParam(name)
		if !ok {
			t.Errorf("parameter %q missing from registry", name)
			continue
		}
		if p.Kind != kind {
			t.Errorf("parameter %q has kind %s, want %s", name, p.Kind, kind)
		}
	}
	if p, _ := LookupParam("pgrep"); len(p.Choices) != 9 {
		t.Errorf("pgrep choices: %v", p.Choices)
	}
}

// TestNoTwoParamsWriteOneField pins the registry invariant that lets a
// grid combine any axes: no two parameters write the same Config or Params
// field, so a later axis never overwrites an earlier one's setting in
// every cell. Each parameter's axis over every choice, both switch states
// or 0, 1 and 2 is applied to the defaults, and every field a point
// changes counts as written.
func TestNoTwoParamsWriteOneField(t *testing.T) {
	owner := map[string]string{}
	for _, p := range Params() {
		values := "all"
		if p.Kind == KindNumeric || p.Kind == KindInteger {
			values = "0,1,2"
		}
		axis, err := ParseAxis(p.Name + "=" + values)
		if err != nil {
			t.Fatal(err)
		}
		written := map[string]bool{}
		for _, pt := range axis.Points {
			cfg, params := core.DefaultConfig(), ocb.DefaultParams()
			pt.Apply(&cfg, &params)
			changedFields(reflect.ValueOf(core.DefaultConfig()), reflect.ValueOf(cfg), "Config", written)
			changedFields(reflect.ValueOf(ocb.DefaultParams()), reflect.ValueOf(params), "Params", written)
		}
		if len(written) == 0 {
			t.Errorf("parameter %q writes no field", p.Name)
		}
		for f := range written {
			if prev, ok := owner[f]; ok {
				t.Errorf("parameters %q and %q both write %s", prev, p.Name, f)
			}
			owner[f] = p.Name
		}
	}
}

// changedFields records in out every leaf field (nested structs flattened
// to prefix.Field) whose value differs between structs a and b.
func changedFields(a, b reflect.Value, prefix string, out map[string]bool) {
	for i := 0; i < a.NumField(); i++ {
		name := prefix + "." + a.Type().Field(i).Name
		if a.Field(i).Kind() == reflect.Struct {
			changedFields(a.Field(i), b.Field(i), name, out)
		} else if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			out[name] = true
		}
	}
}

func TestParseMetrics(t *testing.T) {
	ms, err := ParseMetrics("", Standard)
	if err != nil || len(ms) != len(Metrics(Standard)) {
		t.Fatalf("empty list: %v %v", ms, err)
	}
	ms, err = ParseMetrics("ios, resp ,tps", Standard)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0] != IOs || ms[1] != RespMs || ms[2] != ThroughputTPS {
		t.Fatalf("metrics = %v", ms)
	}
	if _, err := ParseMetrics("preios", Standard); err == nil {
		t.Error("DSTC metric accepted for standard protocol")
	}
	if _, err := ParseMetrics("ios", DSTCProtocol); err == nil {
		t.Error("standard metric accepted for DSTC protocol")
	}
	if _, err := ParseMetrics("nope", Standard); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := ParseMetrics(",", Standard); err == nil {
		t.Error("blank list accepted")
	}
	if ms, err := ParseMetrics("gain,clusters", DSTCProtocol); err != nil || len(ms) != 2 {
		t.Errorf("DSTC metrics: %v %v", ms, err)
	}
}

func TestMetricLabels(t *testing.T) {
	for _, m := range append(Metrics(Standard), Metrics(DSTCProtocol)...) {
		if m.Label() == "" {
			t.Errorf("metric %q has no label", m)
		}
	}
	if Metric("zzz").Label() != "zzz" {
		t.Error("unknown metric label fallback broken")
	}
	if Metric("zzz").ValidFor(Standard) || Metric("zzz").ValidFor(DSTCProtocol) {
		t.Error("unknown metric validates")
	}
}

func TestRenderSweep(t *testing.T) {
	axis, err := ParseAxis("buffpages=48,96")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	s := Sweep{
		Name:    "render",
		Title:   "render study",
		Config:  cfg,
		Params:  matrixParams(),
		Axes:    []Axis{axis},
		Metrics: []Metric{IOs, HitPct},
	}
	res, err := s.Run(Options{Replications: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	if len(tbl.Headers) != 1+2*2 {
		t.Fatalf("headers = %v", tbl.Headers)
	}
	if tbl.Headers[0] != "buffpages" || tbl.Headers[1] != "I/Os" || tbl.Headers[3] != "hit%" {
		t.Fatalf("headers = %v", tbl.Headers)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	text := res.Text()
	if !strings.Contains(text, "render study") || !strings.Contains(text, "48") {
		t.Errorf("text table:\n%s", text)
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "buffpages,I/Os") {
		t.Errorf("csv:\n%s", csv)
	}
	// Charts share the table's title resolution (Title over Name).
	chart := res.Chart(6)
	if !strings.Contains(chart, "render study — I/Os") || !strings.Contains(chart, "render study — hit%") {
		t.Errorf("chart:\n%s", chart)
	}
}
