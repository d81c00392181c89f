package ocb

import "testing"

// BenchmarkOCBGenerate tracks the cost (time and allocations) of building
// one mid-size object base — the dominant per-replication setup cost. The
// Refs and ByClass arenas keep allocs/op near-constant in NO instead of
// linear.
func BenchmarkOCBGenerate(b *testing.B) {
	p := DefaultParams()
	p.NC = 20
	p.NO = 5000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOCBGenerateInto is the warm-rebuild path a replication context
// takes (and the cache-miss path of the sweep-level object-base cache):
// regenerate into a previously used database, recycling its arenas. The
// timed loop alternates between two seeds that the warm-up pass has
// already built — arena sizes depend on the seed's draws (totalRefs
// varies), so warming with the exact timed seeds is what makes even
// -benchtime 1x (the CI 0-allocs/op guard) measure steady state.
func BenchmarkOCBGenerateInto(b *testing.B) {
	p := DefaultParams()
	p.NC = 20
	p.NO = 5000
	db := new(Database)
	for seed := uint64(1); seed <= 2; seed++ {
		if err := GenerateInto(db, p, seed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := GenerateInto(db, p, uint64(i%2)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGenerateInto is the workload half of a replication's
// set-up: refill a recycled Workload over a generated base, as a
// replication context does. It covers the mixed fill over an eager and over
// a streaming base (paper-o2's NC 20, NO 20000) and the §4.4 hierarchy fill
// (1000 depth-3 hierarchy traversals over DSTCExperimentParams). The op
// arena's block count and the traversal buffers depend on the draws, so
// the warm-up fills with the exact seeds the timed loop alternates
// between: even -benchtime 1x (the CI 0-allocs/op guard) measures steady
// state.
func BenchmarkWorkloadGenerateInto(b *testing.B) {
	eager := DefaultParams()
	eager.NC = 20
	stream := eager
	stream.Layout = LayoutStream
	dstc := DSTCExperimentParams()
	mixed := func(w *Workload, db *Database, seed uint64) { w.GenerateInto(db, seed) }
	cases := []struct {
		name string
		p    Params
		fill func(w *Workload, db *Database, seed uint64)
	}{
		{"mixed-eager", eager, mixed},
		{"mixed-stream", stream, mixed},
		{"hierarchy", dstc, func(w *Workload, db *Database, seed uint64) {
			w.GenerateHierarchyInto(db, seed, 1000, dstc.HieDepth)
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			db, err := Generate(c.p, 1)
			if err != nil {
				b.Fatal(err)
			}
			w := new(Workload)
			for seed := uint64(1); seed <= 2; seed++ {
				c.fill(w, db, seed)
				w.Release()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.fill(w, db, uint64(i%2)+1)
				w.Release()
			}
		})
	}
}

// BenchmarkStreamGen1M is the tentpole's generation benchmark: building a
// million-object base under each layout. The streaming build is a counts
// pass plus an O(classes) index — no per-object materialization — so it is
// both faster and asymptotically smaller than the eager-v2 twin; dbbytes
// and bytes/obj report the resident object-base footprint the simulation
// then carries.
func BenchmarkStreamGen1M(b *testing.B) {
	for _, layout := range []Layout{LayoutEagerV2, LayoutStream} {
		b.Run(layout.String(), func(b *testing.B) {
			p := DefaultParams()
			p.NO = 1_000_000
			p.Layout = layout
			b.ReportAllocs()
			b.ResetTimer()
			var db *Database
			for i := 0; i < b.N; i++ {
				var err error
				if db, err = Generate(p, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(db.ResidentBytes()), "dbbytes")
			b.ReportMetric(float64(db.ResidentBytes())/float64(p.NO), "bytes/obj")
		})
	}
}

// BenchmarkStreamAccess tracks the on-demand derivation cost: RefsOf over
// a streaming base, hitting the materialization cache (sequential scan of
// a hot set that fits) versus missing on every access (random walk far
// larger than the cache).
func BenchmarkStreamAccess(b *testing.B) {
	p := DefaultParams()
	p.NO = 200_000
	for _, mode := range []string{"hit", "miss"} {
		b.Run(mode, func(b *testing.B) {
			pl := p
			pl.Layout = LayoutStream
			if mode == "miss" {
				pl.StreamCacheObjects = 64
			}
			db, err := Generate(pl, 1)
			if err != nil {
				b.Fatal(err)
			}
			// An LCG stride visits objects far apart, defeating the
			// direct-mapped cache in miss mode; hit mode cycles within a
			// fraction of the cache.
			o := OID(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = db.RefsOf(o)
				if mode == "hit" {
					o = (o + 1) % 1024
				} else {
					o = OID((uint64(o)*6364136223846793005 + 1442695040888963407) % uint64(pl.NO))
				}
			}
		})
	}
}
