package sweep

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
)

// journalFingerprint writes the journal header that running s under o
// would start with and returns the fingerprint it records — the value a
// later -resume must reproduce.
func journalFingerprint(t *testing.T, s Sweep, o Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pin.jsonl")
	j, err := s.StartJournal(path, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return d.Header.Fingerprint
}

// TestFingerprintPins pins the exact journal fingerprint of four
// representative sweeps: a 1-D standard sweep, a 2-D grid with shared
// bases, a DSTC-protocol sweep and a sweep whose base layout is
// LayoutStream. A journal resumes only when the resuming run derives the
// same fingerprint, so a change to any of these hex strings orphans every
// journal of that shape; it must come with a journalVersion bump.
func TestFingerprintPins(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.System = core.Centralized
	cfg.BufferPages = 96
	params := ocb.DefaultParams()
	params.NC = 8
	params.NO = 600
	params.HotN = 40

	mpl, err := ParamAxis("mpl", []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	pgrep, err := EnumAxis("pgrep", "LRU", "FIFO")
	if err != nil {
		t.Fatal(err)
	}
	buff, err := ParamAxis("buffpages", []float64{48, 96})
	if err != nil {
		t.Fatal(err)
	}
	dstcCfg := cfg
	dstcCfg.BufferPages = 2048
	dstcCfg.Clustering = core.DSTC
	physical := dstcCfg
	physical.PhysicalOIDs = true
	streamParams := params
	streamParams.Layout = ocb.LayoutStream

	for _, c := range []struct {
		name string
		s    Sweep
		o    Options
		want string
	}{
		{"1-D standard", Sweep{
			Name: "pin-mpl", Config: cfg, Params: params,
			Axes: []Axis{mpl}, Metrics: []Metric{IOs, RespMs},
		}, Options{Replications: 2, Seed: 1},
			"a1d39a572361cb4a4a1ebe655c973e7d4bca794e65484a65fad90fe4e986acaf"},
		{"2-D grid, shared bases", Sweep{
			Name: "pin-grid", Config: cfg, Params: params,
			Axes: []Axis{pgrep, buff}, Metrics: []Metric{IOs, HitPct},
		}, Options{Replications: 3, Seed: 77, ShareBases: true},
			"b85309b3e3d83399b444aae96d13f2f42b71cd6e12a46ac9ad11b2d2d61781a1"},
		{"DSTC protocol", Sweep{
			Name: "pin-dstc", Config: dstcCfg, Params: params,
			Axes: []Axis{{Name: "variant", Points: []Point{
				{X: 0, Label: "physical", Apply: func(c *core.Config, _ *ocb.Params) { *c = physical }},
				{X: 1, Label: "logical", Apply: func(c *core.Config, _ *ocb.Params) { *c = dstcCfg }},
			}}},
			Protocol: DSTCProtocol, Transactions: 40, Depth: 3,
		}, Options{Replications: 2, Seed: 88},
			"1867604f5d1ee528bc867b28d276b088c8ae1a9d6c428ce50b90cf98e5e74b3c"},
		{"stream base layout", Sweep{
			Name: "pin-stream", Config: cfg, Params: streamParams,
			Axes: []Axis{mpl}, Metrics: []Metric{IOs},
		}, Options{Replications: 2, Seed: 5},
			"6045f8f3eac9fc5e6e701c722830eeea87a406aa29e0df3116c9cc191ba987dc"},
	} {
		if got := journalFingerprint(t, c.s, c.o); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}
