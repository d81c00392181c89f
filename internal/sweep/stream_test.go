package sweep

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
)

// TestDBLayoutOverrideIdentical pins the layout contract of Params.Layout:
// the same sweep on eager-v2 and on streaming bases produces bit-identical
// results (streaming only changes residency), with and without base
// sharing.
func TestDBLayoutOverrideIdentical(t *testing.T) {
	for _, share := range []bool{false, true} {
		o := Options{Replications: 3, Seed: 7, Workers: 2, ShareBases: share}

		v2 := matrixSweep(core.Centralized)
		v2.Params.Layout = ocb.LayoutEagerV2
		rv2, err := v2.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		st := matrixSweep(core.Centralized)
		st.Params.Layout = ocb.LayoutStream
		rst, err := st.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rv2.Points {
			if !samePointResult(&rv2.Points[i], &rst.Points[i]) {
				t.Errorf("share=%t point %d: streaming result differs from eager-v2", share, i)
			}
		}
	}
}

// TestDBLayoutFingerprint pins the journal-compatibility rule for the
// layout: Params.Layout enters the fingerprint, so each layout has its
// own, while execution-only knobs such as Workers stay out of it and
// bit-identical runs resume each other's journals.
func TestDBLayoutFingerprint(t *testing.T) {
	seen := make(map[string]ocb.Layout)
	for _, layout := range []ocb.Layout{ocb.LayoutEager, ocb.LayoutEagerV2, ocb.LayoutStream} {
		s := matrixSweep(core.Centralized)
		s.Params.Layout = layout
		fp := s.fingerprint(Options{Replications: 2, Seed: 1})
		if prev, dup := seen[fp]; dup {
			t.Errorf("layouts %v and %v share a fingerprint", prev, layout)
		}
		seen[fp] = layout
		if got := s.fingerprint(Options{Replications: 2, Seed: 1, Workers: 8}); got != fp {
			t.Errorf("%v: workers leaked into the fingerprint", layout)
		}
	}
}

// TestDBLayoutAxis pins the dblayout registry entry: an enum, generative
// (it feeds ocb.Generate), parseable from the CLI spec form, and its
// points apply the right ocb.Layout.
func TestDBLayoutAxis(t *testing.T) {
	p, ok := LookupParam("dblayout")
	if !ok {
		t.Fatal("dblayout not registered")
	}
	if p.Kind != KindEnum || !p.Generative {
		t.Fatalf("dblayout kind=%s generative=%t, want enum generative", p.Kind, p.Generative)
	}
	axis, err := ParseAxis("dblayout=eagerv2,stream")
	if err != nil {
		t.Fatal(err)
	}
	if !axis.Generative || len(axis.Points) != 2 {
		t.Fatalf("axis generative=%t points=%d", axis.Generative, len(axis.Points))
	}
	want := []ocb.Layout{ocb.LayoutEagerV2, ocb.LayoutStream}
	for i, pt := range axis.Points {
		var params ocb.Params
		pt.Apply(nil, &params)
		if params.Layout != want[i] {
			t.Errorf("point %d applied layout %v, want %v", i, params.Layout, want[i])
		}
	}
	// A dblayout axis runs end to end, and its v2 points agree with each
	// other (the per-point SeedDelta decorrelates them from eager, so only
	// the two v2 cells are comparable — both get SubSeed-distinct seeds,
	// hence distinct draws; here we just require completion).
	s := matrixSweep(core.Centralized)
	s.Axes = []Axis{axis}
	res, err := s.Run(Options{Replications: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed() != 2 {
		t.Fatalf("completed %d/2 cells", res.Completed())
	}
}

// TestHotSkewAxis pins the hotskew registry entry: numeric, generative,
// zero restores the uniform root draw and positive values select the
// Zipfian one with the given skew.
func TestHotSkewAxis(t *testing.T) {
	p, ok := LookupParam("hotskew")
	if !ok {
		t.Fatal("hotskew not registered")
	}
	if p.Kind != KindNumeric || !p.Generative {
		t.Fatalf("hotskew kind=%s generative=%t, want numeric generative", p.Kind, p.Generative)
	}
	skew, err := ParseAxis("hotskew=0.86,0")
	if err != nil {
		t.Fatal(err)
	}
	var params ocb.Params
	skew.Points[0].Apply(nil, &params)
	if params.RootDist != ocb.Zipf || params.ZipfTheta != 0.86 {
		t.Fatalf("hotskew=0.86 applied RootDist=%v theta=%v", params.RootDist, params.ZipfTheta)
	}
	skew.Points[1].Apply(nil, &params)
	if params.RootDist != ocb.Uniform {
		t.Fatalf("hotskew=0 applied RootDist=%v, want Uniform", params.RootDist)
	}

	axis, err := ParseAxis("hotskew=0:0.8:0.4")
	if err != nil {
		t.Fatal(err)
	}
	if len(axis.Points) != 3 || !axis.Generative {
		t.Fatalf("axis points=%d generative=%t", len(axis.Points), axis.Generative)
	}
	s := matrixSweep(core.Centralized)
	s.Axes = []Axis{axis}
	s.Params.Layout = ocb.LayoutStream
	res, err := s.Run(Options{Replications: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed() != 3 {
		t.Fatalf("completed %d/3 cells", res.Completed())
	}
}

// TestBaseCacheStreamViews pins the sharing contract for streaming bases:
// every Base call returns a fresh view (private materialization cache)
// over one shared index, and views derive the identical base.
func TestBaseCacheStreamViews(t *testing.T) {
	p := matrixParams()
	p.Layout = ocb.LayoutStream
	c, err := NewBaseCache(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Base(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Base(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("streaming BaseCache handed out the same mutable view twice")
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1 (views share one generation)", c.Len())
	}
	for o := 0; o < p.NO; o++ {
		ra := append([]ocb.OID(nil), a.RefsOf(ocb.OID(o))...)
		rb := b.RefsOf(ocb.OID(o))
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("views diverge at object %d", o)
			}
		}
	}
}
