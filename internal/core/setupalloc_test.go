package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
	"repro/internal/rng"
	"repro/internal/systems"
)

// o2SetupAllocLimit bounds what TestO2SetupAllocation's replication may
// allocate in total: 2.15 MB measured, against 2.89 MB when an eager base
// kept a 32-byte record per object and the buffer's frame tables grew by
// one-element appends.
const o2SetupAllocLimit = 2.5e6

// TestO2SetupAllocation bounds what one fresh replication allocates at the
// Fig. 6 headline point (O₂, NC 20, NO 20000), from the object base's
// generation through NewRun, the workload draw and its batches. A set-up
// allocates less than the runtime's first collection target, so everything
// it allocates is live at its peak resident set.
func TestO2SetupAllocation(t *testing.T) {
	p := ocb.DefaultParams()
	p.NC, p.NO = 20, 20000
	seed := rng.SubSeed(1999, 0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var db ocb.Database
	if err := ocb.GenerateInto(&db, p, seed); err != nil {
		t.Fatal(err)
	}
	run, err := core.NewRun(systems.O2(), &db, seed)
	if err != nil {
		t.Fatal(err)
	}
	var w ocb.Workload
	w.GenerateInto(&db, seed+1)
	if len(w.Cold) > 0 {
		run.ExecuteBatch(w.Cold)
	}
	st := run.ExecuteBatch(w.Hot)
	runtime.ReadMemStats(&after)

	if st.Transactions != uint64(len(w.Hot)) {
		t.Fatalf("batch committed %d of %d transactions", st.Transactions, len(w.Hot))
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= o2SetupAllocLimit {
		t.Errorf("O₂ replication at NO %d allocated %.2f MB from generation through its batch, want < %.1f MB",
			p.NO, float64(alloc)/1e6, o2SetupAllocLimit/1e6)
	}
	t.Logf("O₂ replication at NO %d: %.2f MB allocated", p.NO, float64(alloc)/1e6)
}
