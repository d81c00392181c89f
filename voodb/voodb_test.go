package voodb_test

import (
	"testing"

	"repro/voodb"
)

// The façade must support the full documented quickstart flow.
func TestQuickstartFlow(t *testing.T) {
	cfg := voodb.O2()
	params := voodb.DefaultWorkload()
	params.NC = 10
	params.NO = 1000
	params.HotN = 50
	res, err := voodb.Experiment{Config: cfg, Params: params, Seed: 42, Replications: 3}.Run()
	if err != nil {
		t.Fatal(err)
	}
	ci := res.IOsCI()
	if ci.Mean <= 0 || ci.N != 3 {
		t.Fatalf("CI: %+v", ci)
	}
}

func TestManualRunFlow(t *testing.T) {
	params := voodb.DefaultWorkload()
	params.NC = 10
	params.NO = 800
	params.HotN = 30
	db, err := voodb.GenerateDatabase(params, 7)
	if err != nil {
		t.Fatal(err)
	}
	run, err := voodb.NewRun(voodb.Texas(), db, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := voodb.GenerateWorkload(db, 8)
	st := run.ExecuteBatch(w.Hot)
	if st.Transactions != 30 {
		t.Fatalf("transactions = %d", st.Transactions)
	}
}

func TestPresetsAndEnums(t *testing.T) {
	if voodb.O2().System != voodb.PageServer {
		t.Error("O2 preset wrong")
	}
	if voodb.Texas().System != voodb.Centralized {
		t.Error("Texas preset wrong")
	}
	if voodb.TexasDSTC().Clustering != voodb.DSTC {
		t.Error("TexasDSTC preset wrong")
	}
	if voodb.TexasLogicalOIDs().PhysicalOIDs {
		t.Error("TexasLogicalOIDs preset wrong")
	}
	if voodb.O2WithCache(8).BufferPages >= voodb.O2WithCache(64).BufferPages {
		t.Error("cache scaling wrong")
	}
	if voodb.TexasWithMemory(8).BufferPages >= voodb.TexasWithMemory(64).BufferPages {
		t.Error("memory scaling wrong")
	}
	if len(voodb.BufferPolicies()) < 6 {
		t.Error("policy list too short")
	}
	if voodb.DefaultDSTCParams().Validate() != nil {
		t.Error("DSTC defaults invalid")
	}
	if voodb.DSTCWorkload().Validate() != nil {
		t.Error("DSTC workload invalid")
	}
}

// TestSweepViaFacade is the acceptance check of the declarative-sweep API:
// a user-defined sweep over a Table 3 parameter with a metric subset runs
// entirely through the public façade — no internal packages.
func TestSweepViaFacade(t *testing.T) {
	axis, err := voodb.ParseSweepAxis("mpl=1:5:4")
	if err != nil {
		t.Fatal(err)
	}
	params := voodb.DefaultWorkload()
	params.NC = 10
	params.NO = 800
	params.HotN = 40
	cfg := voodb.DefaultConfig()
	cfg.BufferPages = 96
	cfg.Users = 4
	res, err := voodb.RunSweep(voodb.Sweep{
		Name:    "facade-mpl",
		Config:  cfg,
		Params:  params,
		Axis:    axis,
		Metrics: []voodb.Metric{voodb.MetricIOs, voodb.MetricRespMs, voodb.MetricThroughput},
	}, voodb.SweepOptions{Replications: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i := range res.Points {
		if len(res.Points[i].Values) != 3 {
			t.Fatalf("point %d metrics = %d", i, len(res.Points[i].Values))
		}
		ios, ok := res.Points[i].Get(voodb.MetricIOs)
		if !ok || ios.Mean <= 0 || ios.N != 2 {
			t.Fatalf("point %d I/Os interval: %+v", i, ios)
		}
	}
	if txt := res.Text(); len(txt) == 0 {
		t.Error("empty rendering")
	}
	// A custom axis built by hand, mutating the workload (generative).
	custom := voodb.Axis{Name: "hotn", Generative: true, Points: []voodb.AxisPoint{
		{X: 20, SeedDelta: 0, Apply: func(_ *voodb.Config, p *voodb.WorkloadParams) { p.HotN = 20 }},
		{X: 40, SeedDelta: 1, Apply: func(_ *voodb.Config, p *voodb.WorkloadParams) { p.HotN = 40 }},
	}}
	res2, err := voodb.RunSweep(voodb.Sweep{
		Name: "facade-hotn", Config: cfg, Params: params, Axis: custom,
		Metrics: []voodb.Metric{voodb.MetricThroughput},
	}, voodb.SweepOptions{Replications: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Points) != 2 {
		t.Fatalf("custom axis points = %d", len(res2.Points))
	}
	if len(voodb.SweepParams()) < 20 || len(voodb.SweepMetrics(voodb.StandardProtocol)) != 11 {
		t.Error("sweep registries incomplete")
	}
}

// TestGridViaFacade is the acceptance check of the typed multi-axis API: an
// enum axis crossed with a numeric axis, run and heatmap-rendered entirely
// through the public façade.
func TestGridViaFacade(t *testing.T) {
	policies, err := voodb.EnumAxis("pgrep", "LRU", "FIFO")
	if err != nil {
		t.Fatal(err)
	}
	buffers, err := voodb.ParseSweepAxis("buffpages=48,96")
	if err != nil {
		t.Fatal(err)
	}
	params := voodb.DefaultWorkload()
	params.NC = 10
	params.NO = 800
	params.HotN = 40
	cfg := voodb.DefaultConfig()
	cfg.System = voodb.Centralized
	res, err := voodb.RunSweep(voodb.Sweep{
		Name:    "facade-grid",
		Config:  cfg,
		Params:  params,
		Axes:    voodb.Grid(policies, buffers),
		Metrics: []voodb.Metric{voodb.MetricIOs, voodb.MetricHitPct},
	}, voodb.SweepOptions{Replications: 2, Seed: 17, ShareBases: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dims() != 2 || len(res.Points) != 4 {
		t.Fatalf("grid shape: %+v", res.Shape)
	}
	if pr := res.At(1, 0); pr.Labels[0] != "FIFO" || pr.Labels[1] != "48" {
		t.Fatalf("At(1,0) labels: %v", pr.Labels)
	}
	hm, err := res.Heatmap(voodb.MetricIOs)
	if err != nil {
		t.Fatal(err)
	}
	if len(hm) == 0 {
		t.Error("empty heatmap")
	}
	if len(res.FacetTables()) != 2 {
		t.Error("facet count wrong")
	}
	// The typed registry surfaces kinds and choices.
	kinds := map[voodb.ParamKind]bool{}
	for _, p := range voodb.SweepParams() {
		kinds[p.Kind] = true
		if p.Name == "pgrep" && len(p.Choices) != len(voodb.BufferPolicies()) {
			t.Errorf("pgrep choices %v out of sync with BufferPolicies %v", p.Choices, voodb.BufferPolicies())
		}
	}
	for _, k := range []voodb.ParamKind{voodb.NumericParam, voodb.IntegerParam, voodb.EnumParam, voodb.BoolParam} {
		if !kinds[k] {
			t.Errorf("registry missing a %s parameter", k)
		}
	}
}

func TestDSTCExperimentViaFacade(t *testing.T) {
	params := voodb.DSTCWorkload()
	params.NC = 10
	params.NO = 1500
	params.HotRootCount = 25
	cfg := voodb.TexasLogicalOIDs()
	cfg.BufferPages = 4096
	res, err := voodb.DSTCExperiment{
		Config: cfg, Params: params,
		Transactions: 150, Depth: 3, Seed: 3, Replications: 2,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Gain.Mean() <= 1 {
		t.Fatalf("gain = %v", res.Gain.Mean())
	}
}
