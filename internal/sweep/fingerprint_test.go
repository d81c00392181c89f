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

	mpl, err := ParseAxis("mpl=1,2,4")
	if err != nil {
		t.Fatal(err)
	}
	pgrep, err := ParseAxis("pgrep=LRU,FIFO")
	if err != nil {
		t.Fatal(err)
	}
	buff, err := ParseAxis("buffpages=48,96")
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
			"c1c948974c85697bd28763819a3aa239f9f6e0b53da129faf0a1137f48fa37fc"},
		{"2-D grid, shared bases", Sweep{
			Name: "pin-grid", Config: cfg, Params: params,
			Axes: []Axis{pgrep, buff}, Metrics: []Metric{IOs, HitPct},
		}, Options{Replications: 3, Seed: 77, ShareBases: true},
			"6bf5e4364e76fb2447d3033efac11cc0d9965606ec38e934ca044ee063a425a2"},
		{"DSTC protocol", Sweep{
			Name: "pin-dstc", Config: dstcCfg, Params: params,
			Axes: []Axis{{Name: "variant", Points: []Point{
				{X: 0, Label: "physical", Apply: func(c *core.Config, _ *ocb.Params) { *c = physical }},
				{X: 1, Label: "logical", Apply: func(c *core.Config, _ *ocb.Params) { *c = dstcCfg }},
			}}},
			Protocol: DSTCProtocol,
		}, Options{Replications: 2, Seed: 88},
			"ae8df26aad7cd7a6ed78c79922a210ec9eb618f0956c3927e7cab8fbab13d4db"},
		{"stream base layout", Sweep{
			Name: "pin-stream", Config: cfg, Params: streamParams,
			Axes: []Axis{mpl}, Metrics: []Metric{IOs},
		}, Options{Replications: 2, Seed: 5},
			"99c386b8176115f87bf3360bf4686e5eb5c2ab9afbbe8df89c3133cd8ff82425"},
	} {
		if got := journalFingerprint(t, c.s, c.o); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}
