package sweep

import (
	"math"
	"strconv"
	"strings"
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
// cell runs, by the axis constructor or by Sweep.Validate. Accepted, an
// infinite time yields a NaN response time.
func TestNonFiniteValuesRefused(t *testing.T) {
	check := func(name string, v float64) error {
		ax, err := ParseAxis(name + "=" + strconv.FormatFloat(v, 'g', -1, 64))
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

// TestMeaninglessValuesRefused: the failure and skew parameters take 0 for
// "off" and any other value as meant, so a negative MTBF or skew, and a
// repair time without failures, reach the model's checks and Sweep.Validate
// refuses them, naming the cell, whatever the axis order. The values that
// mean something still pass.
func TestMeaninglessValuesRefused(t *testing.T) {
	sweepOf := func(specs ...string) Sweep {
		s := Sweep{Name: "probe", Config: core.DefaultConfig(), Params: ocb.DefaultParams()}
		for _, spec := range specs {
			ax, err := ParseAxis(spec)
			if err != nil {
				t.Fatal(err)
			}
			s.Axes = append(s.Axes, ax)
		}
		return s
	}
	for _, c := range []struct {
		axes []string
		cell string
	}{
		{[]string{"mtbf=-5,0"}, "cell mtbf=-5: "},
		{[]string{"hotskew=-1,0"}, "cell hotskew=-1: "},
		{[]string{"repair=5,50"}, "cell repair=5: "},
		{[]string{"mtbf=0,1000", "repair=200"}, "cell mtbf=0 repair=200: "},
		{[]string{"repair=200", "mtbf=0,1000"}, "cell repair=200 mtbf=0: "},
	} {
		s := sweepOf(c.axes...)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.cell) {
			t.Errorf("%v: %v, want it refused naming %q", c.axes, err, c.cell)
		}
	}
	for _, axes := range [][]string{{"mtbf=0,1000"}, {"mtbf=1000,5000", "repair=200"}, {"hotskew=0,0.86"}} {
		s := sweepOf(axes...)
		if err := s.Validate(); err != nil {
			t.Errorf("%v refused: %v", axes, err)
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
