package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ocb"
)

// texasFaultConfig is a scaled-down systems.Texas (internal/systems
// imports core, so core's tests cannot import it): reservation on load,
// swizzle-dirty swap-outs and LRU on a 96-frame buffer, a small fraction
// of the base. Reservations therefore evict dirty pages (loaded and
// swizzled), clean pages (reserved frames, never written) and, while the
// buffer fills after the start or after a reorganization, nothing. With
// dstc set, DSTC arms after every 25-transaction observation period, so
// reorganizations run inside each batch.
func texasFaultConfig(cold, physical, dstc bool) Config {
	cfg := DefaultConfig()
	cfg.System = Centralized
	cfg.NetThroughputMBps = math.Inf(1)
	cfg.BufferPages = 96
	cfg.MPL = 1
	cfg.GetLockMs = 0
	cfg.RelLockMs = 0
	cfg.StorageOverhead = 1.05
	cfg.PhysicalOIDs = physical
	cfg.ReserveOnLoad = true
	cfg.ReserveCold = cold
	cfg.SwizzleDirty = true
	if dstc {
		cfg.Clustering = DSTC
		cfg.DSTCParams = cluster.DSTCParams{
			ObservationPeriod: 25,
			MinUsage:          1,
			MinLink:           1,
			MaxClusterSize:    16,
			TriggerCandidates: 1,
		}
	}
	return cfg
}

// TestTexasFaultPathDigests pins the Texas fault path — faults, the
// reservations of each loaded object's reference pages and the I/O of the
// evictions they cause — under buffer pressure, with cold and hot
// reservation, physical and logical OIDs, and with and without automatic
// DSTC reorganizations inside the batches. Each cell runs two batches on
// one model, the second on the buffer the first left, and hashes every
// BatchStats field, the buffer's eviction and write-back counts and the
// reorganization I/Os. Counted on an instrumented copy, every cell's
// reservations include tens of thousands that evict nothing (the page is
// resident, or the buffer is not full yet), that evict a dirty page, and
// that evict a clean one. Physical OIDs change only what a reorganization
// costs, so they leave the cells without DSTC alike.
func TestTexasFaultPathDigests(t *testing.T) {
	want := map[string]string{
		"cold=false physical=false dstc=false": "06f5ec53d1c88bc2",
		"cold=false physical=false dstc=true":  "7a035947f72a840b",
		"cold=false physical=true dstc=false":  "06f5ec53d1c88bc2",
		"cold=false physical=true dstc=true":   "a61e0ec1033d4f8b",
		"cold=true physical=false dstc=false":  "5c00108842c5546a",
		"cold=true physical=false dstc=true":   "b68691ba77c27e33",
		"cold=true physical=true dstc=false":   "5c00108842c5546a",
		"cold=true physical=true dstc=true":    "40e426bcacb41cf7",
	}
	p := ocb.DefaultParams()
	p.NC = 20
	p.NO = 3000
	p.HotN = 150
	p.WriteProb = 0.02
	for _, cold := range []bool{false, true} {
		for _, physical := range []bool{false, true} {
			for _, dstc := range []bool{false, true} {
				key := fmt.Sprintf("cold=%v physical=%v dstc=%v", cold, physical, dstc)
				r, db := mustRun(t, texasFaultConfig(cold, physical, dstc), p, 29)
				h := fnv.New64a()
				for batch := uint64(0); batch < 2; batch++ {
					w := ocb.GenerateWorkload(db, 30+batch)
					st := r.ExecuteBatch(w.Hot)
					fmt.Fprintf(h, "%s ev=%d wb=%d reorg=%d\n", fingerprintBatch(st),
						r.buf.Evictions(), r.buf.Writebacks(), st.ReorgIOs)
					if dstc && st.ReorgIOs == 0 {
						t.Errorf("%s batch %d: no reorganization ran", key, batch)
					}
				}
				if got := fmt.Sprintf("%016x", h.Sum64()); got != want[key] {
					t.Errorf("%s: digest %s, want %s", key, got, want[key])
				}
			}
		}
	}
}

// TestWarmTexasReplicationAllocs gates the Texas fault path's
// allocations: a warm replication (regenerate the base, reset the model,
// run the batches) reuses the stored reservation sets' index and blocks,
// the buffer's page table and the store's page directory, so what remains
// is ExecuteBatch's per-batch closures, as on every other configuration.
func TestWarmTexasReplicationAllocs(t *testing.T) {
	p := ocb.DefaultParams()
	p.NC = 20
	p.NO = 3000
	p.HotN = 150
	e := Experiment{Config: texasFaultConfig(true, true, false), Params: p, Seed: 31, Replications: 64, Workers: 1}
	c := &repContext{}
	for rep := 0; rep < 4; rep++ { // warm every arena and pool to its high-water mark
		if _, err := e.runRep(context.Background(), c, rep); err != nil {
			t.Fatal(err)
		}
	}
	rep := 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(8, func() {
		if _, err := e.runRep(context.Background(), c, rep); err != nil {
			t.Fatal(err)
		}
		rep++
	})
	runtime.ReadMemStats(&after)
	t.Logf("warm Texas replication: %v allocations, %d bytes", allocs, (after.TotalAlloc-before.TotalAlloc)/9)
	if allocs > 32 {
		t.Errorf("warm Texas replication performed %v allocations, want ≤ 32", allocs)
	}
}
