package sweep

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
	"repro/internal/rng"
)

// cacheSweepParams returns a small base shared by the cache tests.
func cacheSweepParams() ocb.Params {
	p := ocb.DefaultParams()
	p.NC = 10
	p.NO = 1200
	p.HotN = 50
	return p
}

// runCacheSweep runs a miniature memory-style sweep (same generation
// inputs at every point, per-point experiment seeds) with the given base
// supplier and returns the per-point results.
func runCacheSweep(t *testing.T, base func(int, uint64) (*ocb.Database, error), workers int) []core.Result {
	t.Helper()
	params := cacheSweepParams()
	pool := core.NewContextPool()
	var out []core.Result
	for _, pages := range []int{48, 96, 192} {
		cfg := core.DefaultConfig()
		cfg.System = core.Centralized
		cfg.BufferPages = pages
		cfg.MPL = 2
		e := core.Experiment{
			Config:       cfg,
			Params:       params,
			Seed:         7000 + uint64(pages),
			Replications: 4,
			Workers:      workers,
			Pool:         pool,
			Base:         base,
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, *res)
	}
	return out
}

// TestBaseCacheTransparent is the golden contract of the sweep-level
// object-base cache: a sweep drawing shared bases from the cache must
// match, hex-exactly in every Welford accumulator, the same sweep
// regenerating each base from the identical generation inputs at every
// point — at Workers = 1 and Workers > 1 (the latter exercises concurrent
// cache access and cross-replication sharing of one Database under
// -race).
func TestBaseCacheTransparent(t *testing.T) {
	const sweepSeed = 4242
	params := cacheSweepParams()
	uncached := func(rep int, _ uint64) (*ocb.Database, error) {
		return ocb.Generate(params, rng.SubSeed(sweepSeed, uint64(rep)))
	}
	want := runCacheSweep(t, uncached, 1)

	for _, workers := range []int{1, 4} {
		cache, err := NewBaseCache(params, sweepSeed)
		if err != nil {
			t.Fatal(err)
		}
		got := runCacheSweep(t, cache.Base, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Workers=%d point %d: cached sweep diverged from uncached sweep:\n%+v\n%+v",
					workers, i, got[i], want[i])
			}
		}
		if cache.Len() != 4 {
			t.Fatalf("cache holds %d bases after a 3-point × 4-replication sweep, want 4", cache.Len())
		}
	}
}

// TestBaseCacheGeneratesExactBases pins the cache key contract: the cached
// base for replication r is ocb.Generate(params, rng.SubSeed(seed, r)).
func TestBaseCacheGeneratesExactBases(t *testing.T) {
	params := cacheSweepParams()
	cache, err := NewBaseCache(params, 99)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cache.Base(3, 123456) // per-experiment seed must be ignored
	if err != nil {
		t.Fatal(err)
	}
	want, err := ocb.Generate(params, rng.SubSeed(99, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumObjects() != want.NumObjects() {
		t.Fatalf("cached base has %d objects, want %d", got.NumObjects(), want.NumObjects())
	}
	for i := 0; i < want.NumObjects(); i++ {
		o := ocb.OID(i)
		if got.ClassOf(o) != want.ClassOf(o) || got.SizeOf(o) != want.SizeOf(o) {
			t.Fatalf("cached base object %d differs", o)
		}
		gotRefs, wantRefs := got.RefsOf(o), want.RefsOf(o)
		for r := range wantRefs {
			if gotRefs[r] != wantRefs[r] {
				t.Fatalf("cached base object %d ref %d differs", o, r)
			}
		}
	}
	if db, err := cache.Base(3, 1); err != nil || db != got {
		t.Fatal("second lookup did not return the cached database")
	}
	if _, err := NewBaseCache(ocb.Params{}, 1); err == nil {
		t.Fatal("invalid params accepted")
	}
}
