package sweep

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
)

// matrixParams returns a small workload so the matrix stays fast under
// -race.
func matrixParams() ocb.Params {
	p := ocb.DefaultParams()
	p.NC = 8
	p.NO = 600
	p.HotN = 40
	return p
}

// matrixSweep builds a small MPL sweep over the given architecture.
func matrixSweep(sys core.SystemClass) Sweep {
	cfg := core.DefaultConfig()
	cfg.System = sys
	cfg.NetThroughputMBps = 1
	cfg.BufferPages = 96
	cfg.Users = 3
	axis, err := ParseAxis("mpl=1,2,4")
	if err != nil {
		panic(err)
	}
	return Sweep{
		Name:   "matrix-" + sys.String(),
		Config: cfg,
		Params: matrixParams(),
		Axes:   []Axis{axis},
	}
}

// samePointResult compares two completed points bit for bit: every Welford
// accumulator of the underlying aggregate and every reported interval.
func samePointResult(a, b *PointResult) bool {
	if a.X != b.X || a.Label != b.Label || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	switch {
	case a.Result != nil && b.Result != nil:
		return *a.Result == *b.Result
	case a.DSTC != nil && b.DSTC != nil:
		return *a.DSTC == *b.DSTC
	default:
		return a.Result == b.Result && a.DSTC == b.DSTC
	}
}

// TestArchitectureMatrix is the four-architecture regression gate: a small
// sweep must run on every SystemClass of Table 3 — Centralized,
// ObjectServer, PageServer, DBServer — and be bit-identical across worker
// counts (it also runs under -race in CI, exercising the parallel engine
// on every architecture).
func TestArchitectureMatrix(t *testing.T) {
	for _, sys := range []core.SystemClass{
		core.Centralized, core.ObjectServer, core.PageServer, core.DBServer,
	} {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			s := matrixSweep(sys)
			var want *Result
			for _, workers := range []int{1, 4} {
				got, err := s.Run(Options{Replications: 3, Seed: 77, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Points) != 3 {
					t.Fatalf("got %d points", len(got.Points))
				}
				for i := range got.Points {
					if got.Points[i].Result == nil {
						t.Fatalf("point %d missing standard aggregate", i)
					}
					if ios, ok := got.Points[i].Get(IOs); !ok || ios.Mean <= 0 {
						t.Fatalf("point %d: implausible I/O interval %+v", i, ios)
					}
				}
				if want == nil {
					want = got
					continue
				}
				for i := range got.Points {
					if !samePointResult(&got.Points[i], &want.Points[i]) {
						t.Fatalf("Workers=%d point %d diverged from Workers=1:\n%+v\n%+v",
							workers, i, got.Points[i], want.Points[i])
					}
				}
			}
			// The classes share buffer and workload, so I/O counts agree
			// across architectures; what differs is network traffic. Pin
			// the directional fact that only non-centralized systems
			// transfer messages.
			msgs, ok := want.Points[0].Get(NetMessages)
			if !ok {
				t.Fatal("net msgs metric missing")
			}
			if sys == core.Centralized && msgs.Mean != 0 {
				t.Errorf("centralized system reported %v network messages", msgs.Mean)
			}
			if sys != core.Centralized && msgs.Mean == 0 {
				t.Errorf("%s reported no network messages", sys)
			}
		})
	}
}

// TestShareBasesGenerativeAxis: base sharing must be a no-op on an axis
// that mutates generation inputs — the results have to match the unshared
// run exactly.
func TestShareBasesGenerativeAxis(t *testing.T) {
	axis, err := ParseAxis("no=400,600")
	if err != nil {
		t.Fatal(err)
	}
	if !axis.Generative {
		t.Fatal("no-axis not marked generative")
	}
	cfg := core.DefaultConfig()
	cfg.BufferPages = 64
	p := matrixParams()
	s := Sweep{Name: "gen", Config: cfg, Params: p, Axes: []Axis{axis}, Metrics: []Metric{IOs}}
	plain, err := s.Run(Options{Replications: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := s.Run(Options{Replications: 2, Seed: 5, ShareBases: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Points {
		if !samePointResult(&plain.Points[i], &shared.Points[i]) {
			t.Fatalf("ShareBases changed a generative sweep at point %d", i)
		}
	}
}

// TestShareBasesNonGenerativeAxis: on a buffer-size axis the cache must
// engage — every replication sees the same base at every point, which the
// unshared run (per-point seeds) does not guarantee.
func TestShareBasesNonGenerativeAxis(t *testing.T) {
	axis, err := ParseAxis("buffpages=48,96")
	if err != nil {
		t.Fatal(err)
	}
	if axis.Generative {
		t.Fatal("buffpages-axis marked generative")
	}
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	s := Sweep{Name: "mem", Config: cfg, Params: matrixParams(), Axes: []Axis{axis}, Metrics: []Metric{IOs, HitPct}}
	res, err := s.Run(Options{Replications: 2, Seed: 5, ShareBases: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points: %d", len(res.Points))
	}
	// Shared bases are deterministic: a second run reproduces the first.
	again, err := s.Run(Options{Replications: 2, Seed: 5, ShareBases: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		if !samePointResult(&res.Points[i], &again.Points[i]) {
			t.Fatalf("shared-base sweep not reproducible at point %d", i)
		}
	}
}

// TestDSTCProtocolSweep runs a miniature §4.4 sweep: two variants sharing
// the sweep seed, DSTC metric vector per variant.
func TestDSTCProtocolSweep(t *testing.T) {
	p := ocb.DSTCExperimentParams()
	p.NC = 8
	p.NO = 900
	p.HotRootCount = 15
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	cfg.BufferPages = 2048
	cfg.Clustering = core.DSTC
	logical := cfg
	physical := cfg
	physical.PhysicalOIDs = true
	s := Sweep{
		Name:   "mini-table6",
		Config: cfg,
		Params: p,
		Axes: []Axis{{Name: "variant", Points: []Point{
			{X: 0, Label: "physical", Apply: func(c *core.Config, _ *ocb.Params) { *c = physical }},
			{X: 1, Label: "logical", Apply: func(c *core.Config, _ *ocb.Params) { *c = logical }},
		}}},
		Protocol: DSTCProtocol,
	}
	res, err := s.Run(Options{Replications: 2, Seed: 88})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		pr := &res.Points[i]
		if pr.DSTC == nil || pr.Result != nil {
			t.Fatalf("point %d: wrong protocol aggregates", i)
		}
		if len(pr.Values) != len(Metrics(DSTCProtocol)) {
			t.Fatalf("point %d: %d metrics", i, len(pr.Values))
		}
		pre, _ := pr.Get(PreIOs)
		if pre.Mean <= 0 {
			t.Fatalf("point %d: implausible pre-clustering I/Os %v", i, pre.Mean)
		}
	}
	// Physical OIDs pay the reference-fixup scan, so the reorganization
	// overhead must exceed the logical variant's.
	physOv, _ := res.Points[0].Get(OverheadIOs)
	logOv, _ := res.Points[1].Get(OverheadIOs)
	if physOv.Mean <= logOv.Mean {
		t.Errorf("physical overhead %v not above logical %v", physOv.Mean, logOv.Mean)
	}
}

// TestSweepValidate covers spec validation errors.
func TestSweepValidate(t *testing.T) {
	s := Sweep{Name: "empty"}
	if _, err := s.Run(Options{}); err == nil || !strings.Contains(err.Error(), "no axes") {
		t.Errorf("axis-less sweep accepted: %v", err)
	}
	s = Sweep{Name: "named-empty", Axes: []Axis{{Name: "x"}}}
	if _, err := s.Run(Options{}); err == nil || !strings.Contains(err.Error(), "empty axis") {
		t.Errorf("empty axis accepted: %v", err)
	}
	ax, err := ParseAxis("mpl=1,2")
	if err != nil {
		t.Fatal(err)
	}
	s = Sweep{Name: "dup", Axes: []Axis{ax, ax}}
	if _, err := s.Run(Options{}); err == nil || !strings.Contains(err.Error(), "duplicate axis") {
		t.Errorf("duplicate axes accepted: %v", err)
	}
	s = Sweep{Name: "bad", Axes: []Axis{{Points: []Point{{X: 1}}}}, Metrics: []Metric{PreIOs}}
	if _, err := s.Run(Options{}); err == nil || !strings.Contains(err.Error(), "not collected") {
		t.Errorf("DSTC metric accepted on standard protocol: %v", err)
	}
	s = Sweep{Name: "badcfg", Axes: []Axis{{Points: []Point{{X: 1}}}}}
	s.Params = matrixParams()
	s.Config = core.Config{} // invalid
	if _, err := s.Run(Options{Replications: 1}); err == nil {
		t.Error("invalid config accepted")
	}
	// One impossible cell anywhere in a grid refuses the sweep, naming the
	// first such cell by its axis values.
	pol, err := ParseAxis("pgrep=LRU,FIFO")
	if err != nil {
		t.Fatal(err)
	}
	mpl, err := ParseAxis("mpl=1,2,0")
	if err != nil {
		t.Fatal(err)
	}
	s = Sweep{Name: "grid", Config: core.DefaultConfig(), Params: matrixParams(), Axes: []Axis{pol, mpl}}
	if _, err := s.Run(Options{Replications: 1}); err == nil || !strings.Contains(err.Error(), "cell pgrep=LRU mpl=0: core: MPL = 0") {
		t.Errorf("grid with an MPL 0 cell: %v, want it refused naming cell pgrep=LRU mpl=0", err)
	}
}

// TestRunDescendingMatchesAscending: execution order is a pure
// performance knob; reported results must be bit-identical.
func TestRunDescendingMatchesAscending(t *testing.T) {
	axis, err := ParseAxis("no=400,700")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.BufferPages = 64
	s := Sweep{Name: "asc", Config: cfg, Params: matrixParams(), Axes: []Axis{axis}, Metrics: []Metric{IOs}}
	asc, err := s.Run(Options{Replications: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s.RunDescending = true
	desc, err := s.Run(Options{Replications: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range asc.Points {
		if !samePointResult(&asc.Points[i], &desc.Points[i]) {
			t.Fatalf("execution order changed point %d", i)
		}
	}
}

// TestProgressAndDefaults covers option defaulting and progress plumbing.
func TestProgressAndDefaults(t *testing.T) {
	if (Options{}).reps() != DefaultReplications {
		t.Error("default replications wrong")
	}
	if (Options{Replications: 3}).reps() != 3 {
		t.Error("explicit replications ignored")
	}
	axis, _ := ParseAxis("mpl=1,2")
	cfg := core.DefaultConfig()
	cfg.BufferPages = 64
	s := Sweep{Name: "prog", Config: cfg, Params: matrixParams(), Axes: []Axis{axis}, Metrics: []Metric{IOs}}
	var lines []string
	res, err := s.Run(Options{Replications: 1, Seed: 3, Progress: func(l string) { lines = append(lines, l) }})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Points[0].Values[0].Interval.Confidence; got != core.Confidence {
		t.Errorf("interval confidence %v, want %v", got, core.Confidence)
	}
	if len(lines) != 2 || !strings.Contains(lines[0], "prog mpl=1") {
		t.Errorf("progress lines = %v", lines)
	}
}

// TestDSTCTriggerArmsReorganization: CLUSTP alone installs the DSTC module
// but never reorganizes a standard batch; the dstctrigger threshold arms
// its automatic triggering. Reorganization I/Os read 0 in every cell of a
// clustp × dstctrigger grid except DSTC with a threshold.
func TestDSTCTriggerArmsReorganization(t *testing.T) {
	clustp, err := ParseAxis("clustp=none,dstc")
	if err != nil {
		t.Fatal(err)
	}
	trigger, err := ParseAxis("dstctrigger=0,50")
	if err != nil {
		t.Fatal(err)
	}
	p := ocb.DefaultParams()
	p.NC, p.NO, p.HotN = 10, 2000, 200
	s := Sweep{Name: "trigger", Config: core.DefaultConfig(), Params: p,
		Axes: Grid(clustp, trigger), Metrics: []Metric{ReorgIOs}}
	res, err := s.Run(Options{Replications: 2, Seed: 1999})
	if err != nil {
		t.Fatal(err)
	}
	for i, policy := range []string{"none", "dstc"} {
		for j, threshold := range []int{0, 50} {
			reorg, _ := res.At(i, j).Get(ReorgIOs)
			if armed := policy == "dstc" && threshold > 0; armed != (reorg.Mean > 0) {
				t.Errorf("clustp=%s dstctrigger=%d: %v reorganization I/Os", policy, threshold, reorg.Mean)
			}
		}
	}
}
