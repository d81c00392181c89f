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
	if (FailureParams{Enabled: true, MTBFMs: 100, MeanRepairMs: math.Inf(1)}).Validate() == nil {
		t.Error("infinite repair accepted")
	}
	// A disabled module's times are still times: a sweep that sets the
	// repair time before enabling failures must not carry an impossible
	// one.
	if (FailureParams{MeanRepairMs: math.Inf(1)}).Validate() == nil {
		t.Error("infinite repair accepted on a disabled module")
	}
	// Without failures there is nothing to repair (cmd/voodb refuses
	// -failure-repair without -failure-mtbf for the same reason).
	if (FailureParams{MeanRepairMs: 200}).Validate() == nil {
		t.Error("repair time accepted on a disabled module")
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

// TestResetMatchesNewRun: a Run reset after a replication in which
// failures struck replays the next replication exactly as a freshly built
// Run does, batch and failure statistics alike, so Reset re-seeds the
// injector's stream and clears what it counted. RANDOM replacement covers
// the policy's re-seeding too.
func TestResetMatchesNewRun(t *testing.T) {
	cfg := smallConfig()
	cfg.BufferPolicy = "RANDOM"
	cfg.Failures = FailureParams{Enabled: true, MTBFMs: 500, MeanRepairMs: 20}
	p := smallParams()
	p.HotN = 200
	r, db := mustRun(t, cfg, p, 71)
	r.ExecuteBatch(ocb.GenerateWorkload(db, 72).Hot)
	if r.FailureStats().Failures == 0 {
		t.Fatal("no failure struck in the first replication; the test needs some")
	}

	fresh, db2 := mustRun(t, cfg, p, 73)
	w := ocb.GenerateWorkload(db2, 74)
	want, wantFail := fresh.ExecuteBatch(w.Hot), fresh.FailureStats()
	r.Reset(db2, 73)
	got, gotFail := r.ExecuteBatch(w.Hot), r.FailureStats()
	if got != want {
		t.Errorf("batch after Reset diverged from a fresh Run:\n%+v\n%+v", got, want)
	}
	if gotFail != wantFail {
		t.Errorf("failure stats after Reset = %+v, fresh Run %+v", gotFail, wantFail)
	}
}

// TestWarmFailureBatchAllocs gates the failure path's allocations: on a
// warm model, a batch with failures striking allocates at most once more
// than the same batch without them (the batch's workRemaining closure),
// however many strikes land. Each strike re-arms through the injector's
// bound strike, and each repair runs on a pooled executor.
func TestWarmFailureBatchAllocs(t *testing.T) {
	batch := func(fail bool) (allocs float64, strikes uint64) {
		cfg := smallConfig()
		if fail {
			cfg.Failures = FailureParams{Enabled: true, MTBFMs: 500, MeanRepairMs: 20}
		}
		p := smallParams()
		p.NO = 2000
		p.HotN = 200
		r, db := mustRun(t, cfg, p, 61)
		w := ocb.GenerateWorkload(db, 62)
		r.ExecuteBatch(w.Hot) // grow the pools and the calendar
		strikes = r.FailureStats().Failures
		allocs = testing.AllocsPerRun(4, func() { r.ExecuteBatch(w.Hot) })
		return allocs, strikes
	}
	base, _ := batch(false)
	allocs, strikes := batch(true)
	t.Logf("warm batch: %v allocations without failures, %v with failures (%d strikes in one batch)", base, allocs, strikes)
	if strikes < 100 {
		t.Fatalf("only %d strikes landed in a batch; the test needs many", strikes)
	}
	if allocs > base+1 {
		t.Errorf("a warm batch with %d strikes performed %v allocations, want ≤ %v (one more than without failures)", strikes, allocs, base+1)
	}
}

// TestWarmFailureReplicationAllocs extends that gate to a whole warm
// replication: Reset re-seeds the failure injector in place, so a Reset
// plus one batch with failures striking allocates at most once more than
// the same replication without them (the batch's workRemaining closure).
func TestWarmFailureReplicationAllocs(t *testing.T) {
	replication := func(fail bool) (allocs float64, strikes uint64) {
		cfg := smallConfig()
		if fail {
			cfg.Failures = FailureParams{Enabled: true, MTBFMs: 500, MeanRepairMs: 20}
		}
		p := smallParams()
		p.NO = 2000
		p.HotN = 200
		r, db := mustRun(t, cfg, p, 61)
		w := ocb.GenerateWorkload(db, 62)
		rep := func() {
			r.Reset(db, 63)
			r.ExecuteBatch(w.Hot)
		}
		rep() // grow the pools and the calendar
		strikes = r.FailureStats().Failures
		allocs = testing.AllocsPerRun(4, rep)
		return allocs, strikes
	}
	base, _ := replication(false)
	allocs, strikes := replication(true)
	t.Logf("warm replication: %v allocations without failures, %v with failures (%d strikes)", base, allocs, strikes)
	if strikes < 100 {
		t.Fatalf("only %d strikes landed in a replication; the test needs many", strikes)
	}
	if allocs > base+1 {
		t.Errorf("a warm replication with %d strikes performed %v allocations, want ≤ %v (one more than without failures)", strikes, allocs, base+1)
	}
}
