package sweep

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
	"repro/internal/rng"
)

// TestLegacyAxisMatchesTypedGrid is the golden contract of the grid
// generalization: a hand-built legacy 1-D axis (float mutators, explicit
// SeedDeltas — the pre-typed spec form) must be hex-identical to the same
// study expressed with the registry-built typed axis.
func TestLegacyAxisMatchesTypedGrid(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	cfg.BufferPages = 64
	params := matrixParams()

	pages := []int{48, 96, 192}
	legacyPoints := make([]Point, len(pages))
	for i, pg := range pages {
		pg := pg
		legacyPoints[i] = Point{
			X:         float64(pg),
			SeedDelta: uint64(i),
			Apply:     func(c *core.Config, _ *ocb.Params) { c.BufferPages = pg },
		}
	}
	legacy := Sweep{
		Name:    "legacy-buff",
		Config:  cfg,
		Params:  params,
		Axes:    []Axis{{Name: "buffpages", Points: legacyPoints}},
		Metrics: []Metric{IOs, HitPct, RespMs},
	}
	typedAxis, err := ParseAxis("buffpages=48,96,192")
	if err != nil {
		t.Fatal(err)
	}
	typed := legacy
	typed.Name = "typed-buff"
	typed.Axes = Grid(typedAxis)

	o := Options{Replications: 2, Seed: 33}
	want, err := legacy.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := typed.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("typed grid has %d points, legacy %d", len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		if !samePointResult(&got.Points[i], &want.Points[i]) {
			t.Fatalf("typed single-axis grid diverged from legacy axis at point %d:\n%+v\n%+v",
				i, got.Points[i], want.Points[i])
		}
	}
	if got.Dims() != 1 || got.Shape[0] != len(pages) || got.AxisNames[0] != "buffpages" {
		t.Fatalf("grid shape metadata wrong: %+v", got)
	}
}

// TestGridPointMatchesStandalone pins the grid's cell-seed contract: every
// cell of a 2-D grid must be hex-identical to a standalone 1-point sweep
// applying both parameter values under the cell's derived seed
// (o.Seed + delta₀, then rng.SubSeed-chained with delta₁) — at workers
// 1, 2 and 4 (the CI -race run exercises the parallel engine).
func TestGridPointMatchesStandalone(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	params := matrixParams()

	buffAxis, err := ParseAxis("buffpages=48,96")
	if err != nil {
		t.Fatal(err)
	}
	mplAxis, err := ParseAxis("mpl=1,2,4")
	if err != nil {
		t.Fatal(err)
	}
	grid := Sweep{
		Name:    "grid",
		Config:  cfg,
		Params:  params,
		Axes:    Grid(buffAxis, mplAxis),
		Metrics: []Metric{IOs, RespMs},
	}
	const seed = 55
	for _, workers := range []int{1, 2, 4} {
		res, err := grid.Run(Options{Replications: 2, Seed: seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dims() != 2 || res.Shape[0] != 2 || res.Shape[1] != 3 || len(res.Points) != 6 {
			t.Fatalf("grid shape: %+v", res)
		}
		for i, bpt := range buffAxis.Points {
			for j, mpt := range mplAxis.Points {
				bpt, mpt := bpt, mpt
				standalone := Sweep{
					Name:   "cell",
					Config: cfg,
					Params: params,
					Axes: []Axis{{Name: "cell", Points: []Point{{
						X: bpt.X,
						Apply: func(c *core.Config, p *ocb.Params) {
							bpt.Apply(c, p)
							mpt.Apply(c, p)
						},
					}}}},
					Metrics: []Metric{IOs, RespMs},
				}
				cellSeed := rng.SubSeed(seed+bpt.SeedDelta, mpt.SeedDelta)
				want, err := standalone.Run(Options{Replications: 2, Seed: cellSeed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got := res.At(i, j)
				if got.Coords[0] != i || got.Coords[1] != j {
					t.Fatalf("cell (%d,%d) has coords %v", i, j, got.Coords)
				}
				for vi := range got.Values {
					if got.Values[vi] != want.Points[0].Values[vi] {
						t.Fatalf("workers=%d cell (%d,%d) metric %s diverged:\n%+v\n%+v",
							workers, i, j, got.Values[vi].Metric, got.Values[vi], want.Points[0].Values[vi])
					}
				}
				if *got.Result != *want.Points[0].Result {
					t.Fatalf("workers=%d cell (%d,%d) aggregate diverged", workers, i, j)
				}
			}
		}
	}
}

// TestGridWorkersBitIdentical: a grid run must be bit-identical for every
// worker count, like the 1-D engine.
func TestGridWorkersBitIdentical(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	policy, err := ParseAxis("pgrep=LRU,FIFO")
	if err != nil {
		t.Fatal(err)
	}
	buff, err := ParseAxis("buffpages=48,96")
	if err != nil {
		t.Fatal(err)
	}
	s := Sweep{Name: "pol-grid", Config: cfg, Params: matrixParams(),
		Axes: Grid(policy, buff), Metrics: []Metric{IOs, HitPct}}
	var want *Result
	for _, workers := range []int{1, 2, 4} {
		got, err := s.Run(Options{Replications: 3, Seed: 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got.Points {
			if !samePointResult(&got.Points[i], &want.Points[i]) {
				t.Fatalf("workers=%d grid cell %d diverged", workers, i)
			}
		}
	}
	// Enum labels thread through to the cells.
	if want.At(0, 0).Labels[0] != "LRU" || want.At(1, 1).Labels[0] != "FIFO" {
		t.Fatalf("enum labels wrong: %+v", want.Points)
	}
}

// TestGridShareBases: on an all-non-generative grid the base cache spans
// every cell (deterministic and reproducible); on an all-generative grid
// ShareBases must be a no-op; a mixed grid shares per generative slice and
// stays deterministic.
func TestGridShareBases(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	params := matrixParams()
	buff, _ := ParseAxis("buffpages=48,96")
	mpl, _ := ParseAxis("mpl=1,2")
	no, _ := ParseAxis("no=400,600")
	hotn, _ := ParseAxis("hotn=20,40")

	nonGen := Sweep{Name: "nongen", Config: cfg, Params: params,
		Axes: Grid(buff, mpl), Metrics: []Metric{IOs}}
	a, err := nonGen.Run(Options{Replications: 2, Seed: 9, ShareBases: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := nonGen.Run(Options{Replications: 2, Seed: 9, ShareBases: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if !samePointResult(&a.Points[i], &b.Points[i]) {
			t.Fatalf("shared non-generative grid not reproducible at cell %d", i)
		}
	}

	allGen := Sweep{Name: "allgen", Config: cfg, Params: params,
		Axes: Grid(no, hotn), Metrics: []Metric{IOs}}
	plain, err := allGen.Run(Options{Replications: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := allGen.Run(Options{Replications: 2, Seed: 9, ShareBases: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Points {
		if !samePointResult(&plain.Points[i], &shared.Points[i]) {
			t.Fatalf("ShareBases changed an all-generative grid at cell %d", i)
		}
	}

	mixed := Sweep{Name: "mixed", Config: cfg, Params: params,
		Axes: Grid(no, buff), Metrics: []Metric{IOs}}
	m1, err := mixed.Run(Options{Replications: 2, Seed: 9, ShareBases: true})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := mixed.Run(Options{Replications: 2, Seed: 9, ShareBases: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Points {
		if !samePointResult(&m1.Points[i], &m2.Points[i]) {
			t.Fatalf("mixed shared grid diverged across worker counts at cell %d", i)
		}
	}
	// Within a generative slice (fixed NO), both buffer cells must see the
	// same bases: the slice cache keys on the generative coordinates only.
	if m1.At(0, 0).Result.IOs.N() != 2 {
		t.Fatalf("unexpected replication count")
	}
}

// TestEnumAxes covers axis construction for every categorical kind.
func TestEnumAxes(t *testing.T) {
	axis, err := ParseAxis("pgrep=lru,FIFO")
	if err != nil {
		t.Fatal(err)
	}
	if axis.Generative {
		t.Error("pgrep axis marked generative")
	}
	if len(axis.Points) != 2 || axis.Points[0].Label != "LRU" || axis.Points[1].Label != "FIFO" {
		t.Fatalf("axis points: %+v", axis.Points)
	}
	if axis.Points[0].X != 0 || axis.Points[1].X != 1 || axis.Points[1].SeedDelta != 1 {
		t.Fatalf("categorical positions wrong: %+v", axis.Points)
	}
	cfg := core.DefaultConfig()
	p := ocb.DefaultParams()
	axis.Points[1].Apply(&cfg, &p)
	if cfg.BufferPolicy != "FIFO" {
		t.Errorf("BufferPolicy = %q", cfg.BufferPolicy)
	}

	// All-choices sweep.
	all, err := ParseAxis("sysclass=all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Points) != 4 {
		t.Fatalf("sysclass choices: %+v", all.Points)
	}
	all.Points[3].Apply(&cfg, &p)
	if cfg.System != core.DBServer {
		t.Errorf("System = %v", cfg.System)
	}

	// Placement and clustering selectors.
	initpl, err := ParseAxis("initpl=sequential")
	if err != nil {
		t.Fatal(err)
	}
	initpl.Points[0].Apply(&cfg, &p)
	if cfg.Placement.String() != "Sequential" {
		t.Errorf("Placement = %v", cfg.Placement)
	}

	// Bool axis.
	physoids, err := ParseAxis("physoids=all")
	if err != nil {
		t.Fatal(err)
	}
	if len(physoids.Points) != 2 || physoids.Points[0].Label != "off" || physoids.Points[1].Label != "on" {
		t.Fatalf("physoids axis: %+v", physoids.Points)
	}
	physoids.Points[1].Apply(&cfg, &p)
	if !cfg.PhysicalOIDs {
		t.Errorf("PhysicalOIDs = %v", cfg.PhysicalOIDs)
	}
	physoids.Points[0].Apply(&cfg, &p)
	if cfg.PhysicalOIDs {
		t.Errorf("PhysicalOIDs = %v", cfg.PhysicalOIDs)
	}

	// Errors: bad choice, a number for an enum or a switch; duplicate
	// collapse.
	if _, err := ParseAxis("pgrep=NOPE"); err == nil {
		t.Error("unknown choice accepted")
	}
	if _, err := ParseAxis("pgrep=0,1"); err == nil {
		t.Error("enum parameter accepted a number")
	}
	if _, err := ParseAxis("physoids=2"); err == nil {
		t.Error("switch accepted 2")
	}
	dup, err := ParseAxis("pgrep=LRU,lru,FIFO")
	if err != nil {
		t.Fatal(err)
	}
	if len(dup.Points) != 2 {
		t.Fatalf("duplicate choices not collapsed: %+v", dup.Points)
	}
}

// TestParseAxisTyped covers the typed CLI spec forms.
func TestParseAxisTyped(t *testing.T) {
	axis, err := ParseAxis("pgrep=LRU, fifo ,RANDOM")
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"LRU", "FIFO", "RANDOM"}
	for i, want := range labels {
		if axis.Points[i].Label != want {
			t.Errorf("point %d label %q, want %q", i, axis.Points[i].Label, want)
		}
	}
	if axis, err = ParseAxis("sysclass=all"); err != nil || len(axis.Points) != 4 {
		t.Fatalf("sysclass=all: %v %+v", err, axis.Points)
	}
	if axis, err = ParseAxis("physoids=on,off"); err != nil || len(axis.Points) != 2 || axis.Points[0].Label != "on" {
		t.Fatalf("physoids=on,off: %v %+v", err, axis.Points)
	}
	if axis, err = ParseAxis("physoids=all"); err != nil || len(axis.Points) != 2 {
		t.Fatalf("physoids=all: %v %+v", err, axis.Points)
	}
	for _, spec := range []string{
		"pgrep=LRU,NOPE", // unknown choice
		"pgrep=1:3:1",    // range form on an enum
		"physoids=maybe", // bad switch token
		"pgrep=",         // empty list
	} {
		if _, err := ParseAxis(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestEnumSweepRuns is the end-to-end categorical study: a buffer-policy
// axis changes the simulated replacement behavior.
func TestEnumSweepRuns(t *testing.T) {
	axis, err := ParseAxis("pgrep=LRU,MRU")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	cfg.BufferPages = 48 // tight buffer: policy choice must matter
	s := Sweep{Name: "policies", Config: cfg, Params: matrixParams(),
		Axes: []Axis{axis}, Metrics: []Metric{IOs, HitPct}}
	res, err := s.Run(Options{Replications: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	lru, _ := res.Points[0].Get(IOs)
	mru, _ := res.Points[1].Get(IOs)
	if lru.Mean <= 0 || mru.Mean <= 0 {
		t.Fatalf("implausible I/Os: %v %v", lru.Mean, mru.Mean)
	}
	if lru.Mean == mru.Mean {
		t.Errorf("LRU and MRU produced identical I/Os (%v): policy axis not applied", lru.Mean)
	}
	if res.Points[0].Label != "LRU" || res.Points[1].Label != "MRU" {
		t.Fatalf("labels: %+v", res.Points)
	}
}

// TestGridRendering covers the N-D renderers: flat table, facets, heatmap,
// heatmap CSV and grid charts.
func TestGridRendering(t *testing.T) {
	policy, _ := ParseAxis("pgrep=LRU,FIFO")
	buff, _ := ParseAxis("buffpages=48,96,192")
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	s := Sweep{Name: "hm", Title: "policy grid", Config: cfg, Params: matrixParams(),
		Axes: Grid(policy, buff), Metrics: []Metric{IOs, HitPct}}
	res, err := s.Run(Options{Replications: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	tbl := res.Table()
	if len(tbl.Headers) != 2+2*2 || tbl.Headers[0] != "pgrep" || tbl.Headers[1] != "buffpages" {
		t.Fatalf("grid table headers: %v", tbl.Headers)
	}
	if len(tbl.Rows) != 6 || tbl.Rows[0][0] != "LRU" || tbl.Rows[0][1] != "48" {
		t.Fatalf("grid table rows: %v", tbl.Rows)
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "pgrep,buffpages,I/Os") {
		t.Errorf("grid csv:\n%s", csv)
	}

	facets := res.FacetTables()
	if len(facets) != 3 { // one per buffpages value
		t.Fatalf("facets: %d", len(facets))
	}
	if !strings.Contains(facets[0].Title, "buffpages=48") || facets[0].Headers[0] != "pgrep" {
		t.Fatalf("facet 0: %q %v", facets[0].Title, facets[0].Headers)
	}
	if len(facets[1].Rows) != 2 || facets[1].Rows[1][0] != "FIFO" {
		t.Fatalf("facet rows: %v", facets[1].Rows)
	}

	hm, err := res.Heatmap(IOs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"policy grid — I/Os", `pgrep \ buffpages`, "LRU", "FIFO", "192", "scale"} {
		if !strings.Contains(hm, want) {
			t.Errorf("heatmap missing %q:\n%s", want, hm)
		}
	}
	hcsv, err := res.HeatmapCSV(HitPct)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(hcsv, `pgrep\buffpages,48,96,192`) || len(strings.Split(strings.TrimSpace(hcsv), "\n")) != 3 {
		t.Errorf("heatmap csv:\n%s", hcsv)
	}

	// Grid charts put the first axis on x and draw one series per trailing
	// combination (here: one curve per buffer size).
	chart := res.Chart(8)
	if !strings.Contains(chart, "policy grid — I/Os") || !strings.Contains(chart, "= 48") || !strings.Contains(chart, "= 192") {
		t.Errorf("grid chart:\n%s", chart)
	}

	// Heatmap needs exactly two axes and a collected metric.
	if _, err := res.Heatmap(RespMs); err == nil {
		t.Error("uncollected metric accepted")
	}
	one := Sweep{Name: "one", Config: cfg, Params: matrixParams(), Axes: []Axis{buff}, Metrics: []Metric{IOs}}
	r1, err := one.Run(Options{Replications: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Heatmap(IOs); err == nil {
		t.Error("1-D heatmap accepted")
	}
}

// TestResultAt covers the coordinate accessor's bounds checks.
func TestResultAt(t *testing.T) {
	buff, _ := ParseAxis("buffpages=48,96")
	mpl, _ := ParseAxis("mpl=1,2")
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	s := Sweep{Name: "at", Config: cfg, Params: matrixParams(),
		Axes: Grid(buff, mpl), Metrics: []Metric{IOs}}
	res, err := s.Run(Options{Replications: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pr := res.At(1, 0); pr.Labels[0] != "96" || pr.Labels[1] != "1" {
		t.Fatalf("At(1,0) = %+v", pr)
	}
	for _, coords := range [][]int{{0}, {0, 0, 0}, {2, 0}, {0, -1}} {
		coords := coords
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", coords)
				}
			}()
			res.At(coords...)
		}()
	}
}
