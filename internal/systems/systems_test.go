package systems

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
	"repro/internal/storage"
)

func TestO2MatchesTable4(t *testing.T) {
	cfg := O2()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("O2 config invalid: %v", err)
	}
	if cfg.System != core.PageServer {
		t.Error("O2 must be a page server")
	}
	if !math.IsInf(cfg.NetThroughputMBps, 1) {
		t.Error("O2 network must be infinite (Table 4)")
	}
	if cfg.PageSize != 4096 || cfg.BufferPages != 3840 {
		t.Errorf("O2 page/buffer = %d/%d, want 4096/3840", cfg.PageSize, cfg.BufferPages)
	}
	if cfg.BufferPolicy != "LRU" || cfg.Prefetch != core.NoPrefetch || cfg.Clustering != core.NoClustering {
		t.Error("O2 policies wrong")
	}
	if cfg.DiskSeekMs != 6.3 || cfg.DiskLatencyMs != 2.99 || cfg.DiskTransferMs != 0.7 {
		t.Error("O2 disk timings wrong")
	}
	if cfg.MPL != 10 || cfg.GetLockMs != 0.5 || cfg.RelLockMs != 0.5 || cfg.Users != 1 {
		t.Error("O2 transaction manager parameters wrong")
	}
	if cfg.ServerCPUs != 2 {
		t.Error("O2 ran on a biprocessor")
	}
	if cfg.Placement != storage.OptimizedSequential {
		t.Error("O2 placement wrong")
	}
}

func TestTexasMatchesTable4(t *testing.T) {
	cfg := Texas()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Texas config invalid: %v", err)
	}
	if cfg.System != core.Centralized {
		t.Error("Texas must be centralized")
	}
	if cfg.DiskSeekMs != 7.4 || cfg.DiskLatencyMs != 4.3 || cfg.DiskTransferMs != 0.5 {
		t.Error("Texas disk timings wrong")
	}
	if cfg.MPL != 1 || cfg.GetLockMs != 0 || cfg.RelLockMs != 0 || cfg.Users != 1 {
		t.Error("Texas transaction manager parameters wrong")
	}
	if !cfg.PhysicalOIDs || !cfg.ReserveOnLoad || !cfg.SwizzleDirty {
		t.Error("Texas implementation flags must all be on")
	}
	if cfg.Clustering != core.NoClustering {
		t.Error("plain Texas has no clustering module")
	}
}

func TestTexasVariants(t *testing.T) {
	if TexasDSTC().Clustering != core.DSTC {
		t.Error("TexasDSTC lacks DSTC")
	}
	lg := TexasLogicalOIDs()
	if lg.PhysicalOIDs || lg.Clustering != core.DSTC {
		t.Error("TexasLogicalOIDs wrong")
	}
}

func TestO2CacheScaling(t *testing.T) {
	if got := O2WithCache(16).BufferPages; got != 3840 {
		t.Errorf("16 MB cache = %d pages, want 3840 (Table 4)", got)
	}
	if got := O2WithCache(8).BufferPages; got != 1920 {
		t.Errorf("8 MB cache = %d pages", got)
	}
	if O2WithCache(64).BufferPages <= O2WithCache(8).BufferPages {
		t.Error("cache scaling not monotonic")
	}
}

func TestTexasMemoryScaling(t *testing.T) {
	// 64 MB must hold the whole ≈ 21 MB base (Figures 9/10 show cold-miss
	// behaviour at 64 MB).
	db, err := ocb.Generate(ocb.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.New(db, storage.Config{PageSize: 4096, Overhead: 1.05, Placement: storage.OptimizedSequential})
	if err != nil {
		t.Fatal(err)
	}
	if frames := TexasWithMemory(64).BufferPages; frames < st.NumPages() {
		t.Errorf("64 MB pool (%d frames) smaller than the base (%d pages)", frames, st.NumPages())
	}
	if frames := TexasWithMemory(8).BufferPages; frames >= st.NumPages()/4 {
		t.Errorf("8 MB pool (%d frames) too large for the Figure 11 blow-up", frames)
	}
	if TexasWithMemory(1).BufferPages < 64 {
		t.Error("memory floor violated")
	}
	if TexasWithMemory(24).BufferPages <= TexasWithMemory(12).BufferPages {
		t.Error("memory scaling not monotonic")
	}
}

func TestPresetsRunEndToEnd(t *testing.T) {
	p := ocb.DefaultParams()
	p.NC = 10
	p.NO = 1000
	p.HotN = 40
	for name, cfg := range map[string]core.Config{
		"O2":    O2(),
		"Texas": Texas(),
	} {
		e := core.Experiment{Config: cfg, Params: p, Seed: 5, Replications: 2}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.IOs.Mean() <= 0 {
			t.Errorf("%s: no I/O measured", name)
		}
	}
}

// TestPreset: both command-line tools name their base configurations
// through Preset, case-insensitively, and an unknown name lists the known
// ones.
func TestPreset(t *testing.T) {
	for name, want := range map[string]core.Config{
		"default": core.DefaultConfig(), "o2": O2(), "Texas": Texas(), "texas-dstc": TexasDSTC(),
	} {
		if got, err := Preset(name); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Preset(%q) = %+v, %v", name, got, err)
		}
	}
	if _, err := Preset("nosuch"); err == nil || !strings.Contains(err.Error(), "default|o2|texas|texas-dstc") {
		t.Errorf("unknown preset: %v", err)
	}
}
