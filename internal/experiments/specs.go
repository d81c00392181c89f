package experiments

// This file expresses every reproduced experiment of the paper's §4 as
// *data*: one registry entry per figure/table, holding the declarative
// sweep.Sweep spec that the generic engine in internal/sweep executes and
// the paper's published values. Nothing below runs a simulation — the
// specs only describe base configuration, axis mutations, and metric
// selection. RunFigure and RunTable (experiments.go) adapt the generic
// sweep results back to the Figure/TableResult shapes; their outputs are
// hex-identical to the pre-refactor hardcoded loops (pinned by
// TestDeclarativeFig6MatchesLegacy).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ocb"
	"repro/internal/paper"
	"repro/internal/sweep"
	"repro/internal/systems"
)

// reproduction is one registered experiment: the builder of its spec and
// the published values its results are set beside. A figure carries the
// paper's digitized curves; a table carries its rows, whose metrics are
// the spec's metric selection, and the name of its alternate column when
// it reports a second variant.
type reproduction struct {
	id    string
	spec  func() sweep.Sweep
	paper paper.Series
	rows  []tableRowSpec
	alt   string
}

// tableRowSpec pairs one published table row with the sweep metric that
// reproduces it.
type tableRowSpec struct {
	name   string
	metric sweep.Metric
	paper  paper.DSTCRow
}

func (r *reproduction) isTable() bool { return len(r.rows) > 0 }

// reproductions lists every experiment in paper order.
var reproductions = []reproduction{
	{id: "fig6", paper: paper.Fig6, spec: func() sweep.Sweep {
		return instanceSpec("Mean number of I/Os vs instances (O2, 20 classes)", systems.O2(), 20)
	}},
	{id: "fig7", paper: paper.Fig7, spec: func() sweep.Sweep {
		return instanceSpec("Mean number of I/Os vs instances (O2, 50 classes)", systems.O2(), 50)
	}},
	{id: "fig8", paper: paper.Fig8, spec: func() sweep.Sweep {
		return memorySpec("Mean number of I/Os vs cache size (O2)", systems.O2WithCache)
	}},
	{id: "fig9", paper: paper.Fig9, spec: func() sweep.Sweep {
		return instanceSpec("Mean number of I/Os vs instances (Texas, 20 classes)", systems.Texas(), 20)
	}},
	{id: "fig10", paper: paper.Fig10, spec: func() sweep.Sweep {
		return instanceSpec("Mean number of I/Os vs instances (Texas, 50 classes)", systems.Texas(), 50)
	}},
	{id: "fig11", paper: paper.Fig11, spec: func() sweep.Sweep {
		return memorySpec("Mean number of I/Os vs memory size (Texas)", systems.TexasWithMemory)
	}},
	// Table 6's benchmark column is matched by the physical-OID mode and
	// its simulation column by the logical-OID mode.
	{id: "table6", alt: "ours (logical OIDs)", rows: []tableRowSpec{
		{"Pre-clustering usage", sweep.PreIOs, paper.Table6[0]},
		{"Clustering overhead", sweep.OverheadIOs, paper.Table6[1]},
		{"Post-clustering usage", sweep.PostIOs, paper.Table6[2]},
		{"Gain", sweep.Gain, paper.Table6[3]},
	}, spec: func() sweep.Sweep {
		return dstcSpec("Effects of DSTC (mean number of I/Os) – mid-sized base",
			dstcPoint(0, "physical", systems.TexasDSTC, 64),
			dstcPoint(1, "logical", systems.TexasLogicalOIDs, 64))
	}},
	{id: "table7", rows: []tableRowSpec{
		{"Mean number of clusters", sweep.Clusters, paper.Table7[0]},
		{"Mean number of obj./cluster", sweep.ObjPerCluster, paper.Table7[1]},
	}, spec: func() sweep.Sweep {
		return dstcSpec("DSTC clustering statistics", dstcPoint(0, "dstc", systems.TexasDSTC, 64))
	}},
	{id: "table8", rows: []tableRowSpec{
		{"Pre-clustering usage", sweep.PreIOs, paper.Table8[0]},
		{"Post-clustering usage", sweep.PostIOs, paper.Table8[1]},
		{"Gain", sweep.Gain, paper.Table8[2]},
	}, spec: func() sweep.Sweep {
		return dstcSpec("Effects of DSTC – 'large' base (8 MB memory)", dstcPoint(0, "dstc", systems.TexasDSTC, 8))
	}},
}

// find returns the registered experiment id, or nil.
func find(id string) *reproduction {
	for i := range reproductions {
		if reproductions[i].id == id {
			return &reproductions[i]
		}
	}
	return nil
}

// Names lists every experiment id in paper order.
func Names() []string {
	ids := make([]string, len(reproductions))
	for i, r := range reproductions {
		ids[i] = r.id
	}
	return ids
}

// Spec returns the declarative sweep spec behind experiment id. Run it
// with RunFigure or RunTable for the paper's shapes, or through
// sweep.Sweep.Run for the full metric vector; callers may mutate it (its
// Params.Layout, say) for derived studies.
func Spec(id string) (sweep.Sweep, error) {
	r := find(id)
	if r == nil {
		return sweep.Sweep{}, fmt.Errorf("experiments: no spec for %q", id)
	}
	s := r.spec()
	s.Name = id
	if r.isTable() {
		s.Metrics = make([]sweep.Metric, len(r.rows))
		for i, row := range r.rows {
			s.Metrics[i] = row.metric
		}
	}
	return s, nil
}

// table5Params returns the §4.3 workload: OCB defaults with the Table 5
// transaction mix and the given schema/instance sizing.
func table5Params(nc, no int) ocb.Params {
	p := ocb.DefaultParams()
	p.NC = nc
	p.NO = no
	return p
}

// instanceSpec describes a Figures 6/7/9/10-style sweep over NO. NO feeds
// ocb.Generate, so the axis is generative (bases regenerate per point) and
// the sweep runs largest-NO-first so the pooled replication contexts reach
// their high-water size at the first point.
func instanceSpec(title string, cfg core.Config, nc int) sweep.Sweep {
	pts := make([]sweep.Point, len(paper.InstanceCounts))
	for i, no := range paper.InstanceCounts {
		no := no
		pts[i] = sweep.Point{
			X:         float64(no),
			SeedDelta: uint64(no),
			Apply:     func(_ *core.Config, p *ocb.Params) { p.NO = no },
		}
	}
	return sweep.Sweep{
		Title:         title,
		Config:        cfg,
		Params:        table5Params(nc, paper.InstanceCounts[len(paper.InstanceCounts)-1]),
		Axes:          []sweep.Axis{{Name: "instances", Generative: true, Points: pts}},
		RunDescending: true,
	}
}

// memorySpec describes a Figures 8/11-style sweep over memory size. The
// swept parameter is the buffer size — it never reaches ocb.Generate — so
// the axis is non-generative and Options.ShareBases may share each
// replication's base across all points.
func memorySpec(title string, mkCfg func(mb int) core.Config) sweep.Sweep {
	pts := make([]sweep.Point, len(paper.MemorySizesMB))
	for i, mb := range paper.MemorySizesMB {
		mb := mb
		pts[i] = sweep.Point{
			X:         float64(mb),
			SeedDelta: uint64(mb),
			Apply:     func(cfg *core.Config, _ *ocb.Params) { *cfg = mkCfg(mb) },
		}
	}
	return sweep.Sweep{
		Title:  title,
		Config: mkCfg(paper.MemorySizesMB[0]),
		Params: table5Params(50, 20000),
		Axes:   []sweep.Axis{{Name: "MB", Points: pts}},
	}
}

// dstcPoint is one §4.4 protocol variant: a full configuration override
// plus the available memory in MB.
func dstcPoint(x float64, label string, mkCfg func() core.Config, memMB int) sweep.Point {
	return sweep.Point{
		X:     x,
		Label: label,
		Apply: func(cfg *core.Config, _ *ocb.Params) {
			*cfg = mkCfg()
			if memMB > 0 {
				cfg.BufferPages = systems.TexasWithMemory(memMB).BufferPages
			}
		},
	}
}

// dstcSpec describes a Tables 6–8-style study: the §4.4 protocol (1000
// depth-3 hierarchy traversals, reorganize, 1000 more) run at each point.
// All points share the sweep seed (SeedDelta 0), matching the paper's
// protocol of comparing variants on identical bases.
func dstcSpec(title string, points ...sweep.Point) sweep.Sweep {
	return sweep.Sweep{
		Title:    title,
		Config:   systems.TexasDSTC(),
		Params:   ocb.DSTCExperimentParams(),
		Axes:     []sweep.Axis{{Name: "variant", Points: points}},
		Protocol: sweep.DSTCProtocol,
	}
}
