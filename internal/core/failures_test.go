package core

import (
	"math"
	"testing"

	"repro/internal/ocb"
)

func TestFailureParamsValidate(t *testing.T) {
	if (FailureParams{}).Validate() != nil {
		t.Error("disabled params must validate")
	}
	if (FailureParams{Enabled: true, MTBFMs: 100, MeanRepairMs: 10}).Validate() != nil {
		t.Error("sound params rejected")
	}
	if (FailureParams{Enabled: true, MTBFMs: 0}).Validate() == nil {
		t.Error("zero MTBF accepted")
	}
	if (FailureParams{Enabled: true, MTBFMs: 1, MeanRepairMs: -1}).Validate() == nil {
		t.Error("negative repair accepted")
	}
	if (FailureParams{Enabled: true, MTBFMs: math.NaN(), MeanRepairMs: 10}).Validate() == nil {
		t.Error("NaN MTBF accepted")
	}
	if (FailureParams{Enabled: true, MTBFMs: 100, MeanRepairMs: math.NaN()}).Validate() == nil {
		t.Error("NaN repair accepted")
	}
	cfg := DefaultConfig()
	cfg.Failures = FailureParams{Enabled: true, MTBFMs: -1}
	if cfg.Validate() == nil {
		t.Error("config with bad failure params accepted")
	}
}

func TestFailuresStrikeAndRecover(t *testing.T) {
	cfg := smallConfig()
	cfg.BufferPages = 4096
	cfg.Failures = FailureParams{Enabled: true, MTBFMs: 500, MeanRepairMs: 50}
	p := smallParams()
	p.HotN = 120
	r, db := mustRun(t, cfg, p, 51)
	w := ocb.GenerateWorkload(db, 52)
	st := r.ExecuteBatch(w.Hot)
	fs := r.FailureStats()
	if fs.Failures == 0 {
		t.Fatal("no failure struck despite tiny MTBF")
	}
	if fs.DowntimeMs <= 0 || fs.PagesDropped == 0 {
		t.Fatalf("failure stats degenerate: %+v", fs)
	}
	// Every transaction must still complete.
	if st.Transactions != uint64(p.HotN) {
		t.Fatalf("transactions = %d, want %d", st.Transactions, p.HotN)
	}
}

// TestFailuresInstantRepair runs the zero mean repair time Validate
// accepts (and the mtbf sweep parameter leaves on a default config):
// failures still strike and drop the buffer, with no downtime.
func TestFailuresInstantRepair(t *testing.T) {
	cfg := smallConfig()
	cfg.BufferPages = 4096
	cfg.Failures = FailureParams{Enabled: true, MTBFMs: 500}
	p := smallParams()
	p.HotN = 120
	r, db := mustRun(t, cfg, p, 51)
	w := ocb.GenerateWorkload(db, 52)
	st := r.ExecuteBatch(w.Hot)
	fs := r.FailureStats()
	if fs.Failures == 0 || fs.PagesDropped == 0 {
		t.Fatalf("no failure struck despite tiny MTBF: %+v", fs)
	}
	if fs.DowntimeMs != 0 {
		t.Fatalf("downtime = %v with a zero mean repair time", fs.DowntimeMs)
	}
	if st.Transactions != uint64(p.HotN) {
		t.Fatalf("transactions = %d, want %d", st.Transactions, p.HotN)
	}
}

func TestFailuresCostIOsAndTime(t *testing.T) {
	run := func(enabled bool) BatchStats {
		cfg := smallConfig()
		cfg.BufferPages = 4096
		if enabled {
			cfg.Failures = FailureParams{Enabled: true, MTBFMs: 400, MeanRepairMs: 100}
		}
		p := smallParams()
		p.HotN = 150
		r, db := mustRun(t, cfg, p, 53)
		w := ocb.GenerateWorkload(db, 54)
		return r.ExecuteBatch(w.Hot)
	}
	healthy, failing := run(false), run(true)
	if failing.IOs <= healthy.IOs {
		t.Errorf("failures should force cache refills: %d vs %d IOs", failing.IOs, healthy.IOs)
	}
	if failing.ElapsedMs <= healthy.ElapsedMs {
		t.Errorf("failures should extend the run: %v vs %v ms", failing.ElapsedMs, healthy.ElapsedMs)
	}
}

func TestNoFailuresByDefault(t *testing.T) {
	r, db := mustRun(t, smallConfig(), smallParams(), 55)
	w := ocb.GenerateWorkload(db, 56)
	r.ExecuteBatch(w.Hot)
	if fs := r.FailureStats(); fs.Failures != 0 {
		t.Fatalf("failures without the module enabled: %+v", fs)
	}
}

func TestFailuresDeterministic(t *testing.T) {
	run := func() FailureStats {
		cfg := smallConfig()
		cfg.Failures = FailureParams{Enabled: true, MTBFMs: 300, MeanRepairMs: 20}
		p := smallParams()
		r, db := mustRun(t, cfg, p, 57)
		w := ocb.GenerateWorkload(db, 58)
		r.ExecuteBatch(w.Hot)
		return r.FailureStats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("failure injection not deterministic: %+v vs %+v", a, b)
	}
}
