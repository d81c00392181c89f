package sweep

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
)

// defaultBaseSweep wraps one axis in a sweep over the Table 3 and Table 5
// defaults, the base cmd/experiments -sweep starts from.
func defaultBaseSweep(ax Axis) Sweep {
	return Sweep{Name: "probe", Config: core.DefaultConfig(), Params: ocb.DefaultParams(), Axes: []Axis{ax}}
}

// TestNonFiniteValuesRefused: NaN on any registry parameter, and +Inf on
// any but netthru (documented as a free network), is refused before any
// cell runs, by the axis constructor or by Sweep.Validate. Accepted, NaN
// is misread (the mtbf and hotskew mutators take it for "off"), and an
// infinite time yields a NaN response time.
func TestNonFiniteValuesRefused(t *testing.T) {
	check := func(name string, v float64) error {
		ax, err := ParamAxis(name, []float64{v})
		if err != nil {
			return err
		}
		s := defaultBaseSweep(ax)
		return s.Validate()
	}
	for _, p := range Params() {
		if err := check(p.Name, math.NaN()); err == nil {
			t.Errorf("%s=NaN accepted", p.Name)
		}
		err := check(p.Name, math.Inf(1))
		switch {
		case p.Name == "netthru" && err != nil:
			t.Errorf("netthru=+Inf (a free network) refused: %v", err)
		case p.Name != "netthru" && err == nil:
			t.Errorf("%s=+Inf accepted", p.Name)
		}
	}
}

// FuzzParseAxis: ParseAxis never panics, and every axis it returns is
// either accepted by Sweep.Validate on the default base or refused with an
// error; Validate guards the point mutators, so it never panics either.
// An accepted spec yields 1 to maxAxisPoints points with distinct labels
// and no NaN position. The seed corpus in testdata/fuzz/FuzzParseAxis
// holds the CLI smoke axes and the non-finite and out-of-range refusals.
func FuzzParseAxis(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		ax, err := ParseAxis(spec)
		if err != nil {
			return
		}
		if n := len(ax.Points); n == 0 || n > maxAxisPoints {
			t.Fatalf("%q: %d points", spec, n)
		}
		seen := make(map[string]bool, len(ax.Points))
		for _, pt := range ax.Points {
			if math.IsNaN(pt.X) {
				t.Fatalf("%q: point at NaN", spec)
			}
			if seen[pt.label()] {
				t.Fatalf("%q: duplicate point %s", spec, pt.label())
			}
			seen[pt.label()] = true
		}
		s := defaultBaseSweep(ax)
		_ = s.Validate()
	})
}
