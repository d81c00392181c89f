package ocb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// streamTestParams returns layout-v2 parameter variants that exercise the
// derivation paths: zipf class population, hierarchy bias, hot roots,
// tight and unrestricted object locality.
func streamTestParams() map[string]Params {
	base := DefaultParams()
	base.NO = 3000
	base.NC = 20
	base.HotN = 50

	zipf := base
	zipf.ObjClassDist = Zipf
	zipf.ZipfTheta = 0.8

	dstc := DSTCExperimentParams()
	dstc.NO = 3000
	dstc.HotN = 50

	wide := base
	wide.ObjectLocality = base.NO
	wide.TypeZeroBias = 0.3

	tiny := base
	tiny.NO = base.NC // every class exactly one instance: NilRef fallbacks

	return map[string]Params{"base": base, "zipfclasses": zipf, "dstc": dstc, "wide": wide, "tiny": tiny}
}

func generateLayout(t *testing.T, p Params, layout Layout, seed uint64) *Database {
	t.Helper()
	p.Layout = layout
	db, err := Generate(p, seed)
	if err != nil {
		t.Fatalf("Generate(%v): %v", layout, err)
	}
	return db
}

// snapshotObject captures one object's derived attributes for comparison.
func snapshotObject(db *Database, o OID) string {
	return fmt.Sprintf("class=%d size=%d refs=%v", db.ClassOf(o), db.SizeOf(o), db.RefsOf(o))
}

// TestStreamEagerV2Equivalence pins the tentpole claim: an eager-v2 base
// and a streaming base generated from the same (params, seed) are
// bit-identical object by object — classes, sizes, references, hot roots,
// per-class ranges — accessed in sequential and in random order.
func TestStreamEagerV2Equivalence(t *testing.T) {
	for name, p := range streamTestParams() {
		t.Run(name, func(t *testing.T) {
			const seed = 42
			eager := generateLayout(t, p, LayoutEagerV2, seed)
			stream := generateLayout(t, p, LayoutStream, seed)

			if eager.Streaming() || !stream.Streaming() {
				t.Fatalf("Streaming(): eager=%v stream=%v", eager.Streaming(), stream.Streaming())
			}
			if eager.NumObjects() != p.NO || stream.NumObjects() != p.NO {
				t.Fatalf("NumObjects: eager=%d stream=%d want %d", eager.NumObjects(), stream.NumObjects(), p.NO)
			}
			if got, want := fmt.Sprintf("%v", stream.HotRoots), fmt.Sprintf("%v", eager.HotRoots); got != want {
				t.Fatalf("HotRoots differ:\n  stream %s\n  eager  %s", got, want)
			}
			for c := 0; c < p.NC; c++ {
				if stream.ClassCount(c) != eager.ClassCount(c) {
					t.Fatalf("ClassCount(%d): stream=%d eager=%d", c, stream.ClassCount(c), eager.ClassCount(c))
				}
				slo, shi, sok := stream.ClassRange(c)
				elo, ehi, eok := eager.ClassRange(c)
				if !sok || !eok || slo != elo || shi != ehi {
					t.Fatalf("ClassRange(%d): stream=[%d,%d,%v) eager=[%d,%d,%v)", c, slo, shi, sok, elo, ehi, eok)
				}
			}
			if stream.TotalBytes() != eager.TotalBytes() || stream.AvgRefs() != eager.AvgRefs() {
				t.Fatalf("aggregates differ: bytes %d vs %d, refs %v vs %v",
					stream.TotalBytes(), eager.TotalBytes(), stream.AvgRefs(), eager.AvgRefs())
			}

			// Sequential access order.
			for o := 0; o < p.NO; o++ {
				if got, want := snapshotObject(stream, OID(o)), snapshotObject(eager, OID(o)); got != want {
					t.Fatalf("object %d (sequential):\n  stream %s\n  eager  %s", o, got, want)
				}
			}
			// Random access order against a fresh streaming base, so cache
			// state from the sequential pass cannot mask order dependence.
			stream2 := generateLayout(t, p, LayoutStream, seed)
			perm := rand.New(rand.NewSource(7)).Perm(p.NO)
			for _, o := range perm {
				if got, want := snapshotObject(stream2, OID(o)), snapshotObject(eager, OID(o)); got != want {
					t.Fatalf("object %d (random order):\n  stream %s\n  eager  %s", o, got, want)
				}
			}
		})
	}
}

// TestStreamTinyCacheEquivalence pins that the materialization cache is a
// pure recomputation/residency trade: a 2-slot cache thrashing on every
// access still derives the identical base.
func TestStreamTinyCacheEquivalence(t *testing.T) {
	p := streamTestParams()["base"]
	const seed = 99
	eager := generateLayout(t, p, LayoutEagerV2, seed)
	stream := generateLayout(t, p, LayoutStream, seed)
	stream.resetStream(stream.stream.refBase, stream.Params, 2)
	// Interleave two objects mapping to the same slot to force thrash.
	for o := 0; o < p.NO; o++ {
		if got, want := snapshotObject(stream, OID(o)), snapshotObject(eager, OID(o)); got != want {
			t.Fatalf("object %d: stream %s != eager %s", o, got, want)
		}
		alias := (o + len(stream.stream.slots)) % p.NO
		_ = stream.RefsOf(OID(alias)) // evict o's slot
	}
}

// TestStreamRegenerate pins GenerateInto reuse: rebuilding the same
// Database across seeds and layouts (stream → other seed → back, stream →
// eager v1 → stream) always matches a fresh generation.
func TestStreamRegenerate(t *testing.T) {
	p := streamTestParams()["base"]
	p.Layout = LayoutStream

	fresh1 := generateLayout(t, p, LayoutStream, 1)
	fresh2 := generateLayout(t, p, LayoutStream, 2)

	db := &Database{}
	if err := GenerateInto(db, p, 1); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 100; o++ { // warm the cache with seed-1 contents
		_ = db.RefsOf(OID(o))
	}
	if err := GenerateInto(db, p, 2); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < p.NO; o++ {
		if got, want := snapshotObject(db, OID(o)), snapshotObject(fresh2, OID(o)); got != want {
			t.Fatalf("after reseed, object %d: %s != fresh %s", o, got, want)
		}
	}

	// Round-trip through the legacy eager layout: the v1 base must be
	// untouched by v2 state, and the v2 rebuild must not see stale arenas.
	pv1 := p
	pv1.Layout = LayoutEager
	freshV1 := generateLayout(t, pv1, LayoutEager, 3)
	if err := GenerateInto(db, pv1, 3); err != nil {
		t.Fatal(err)
	}
	if db.Streaming() {
		t.Fatal("v1 rebuild left database in streaming mode")
	}
	for o := 0; o < pv1.NO; o++ {
		if got, want := snapshotObject(db, OID(o)), snapshotObject(freshV1, OID(o)); got != want {
			t.Fatalf("v1 rebuild, object %d: %s != fresh %s", o, got, want)
		}
	}
	if err := GenerateInto(db, p, 1); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < p.NO; o++ {
		if got, want := snapshotObject(db, OID(o)), snapshotObject(fresh1, OID(o)); got != want {
			t.Fatalf("stream rebuild, object %d: %s != fresh %s", o, got, want)
		}
	}
}

// TestStreamViewConcurrent derives the whole base from several StreamViews
// concurrently (run under -race in CI): views share the immutable index but
// own private caches, so every view must see the reference base.
func TestStreamViewConcurrent(t *testing.T) {
	p := streamTestParams()["base"]
	const seed = 5
	eager := generateLayout(t, p, LayoutEagerV2, seed)
	stream := generateLayout(t, p, LayoutStream, seed)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		view := stream.StreamView()
		if view == stream {
			t.Fatal("StreamView returned the shared base")
		}
		wg.Add(1)
		go func(w int, v *Database) {
			defer wg.Done()
			perm := rand.New(rand.NewSource(int64(w))).Perm(p.NO)
			for _, o := range perm {
				if got, want := snapshotObject(v, OID(o)), snapshotObject(eager, OID(o)); got != want {
					errs <- fmt.Sprintf("worker %d object %d: %s != %s", w, o, got, want)
					return
				}
			}
		}(w, view)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if eagerView := eager.StreamView(); eagerView != eager {
		t.Error("StreamView on an eager base should return the base itself")
	}
}

// TestStreamResidencyScaling pins the O(hot-set + classes) shape at unit
// scale: growing NO by 32× must not grow a streaming base's resident
// bytes, while the eager-v2 base grows roughly linearly. At NO = 96000 the
// eager-v2 base keeps about 32 bytes per object, 10× the streaming base.
func TestStreamResidencyScaling(t *testing.T) {
	p := streamTestParams()["base"]
	small, big := p, p
	big.NO = p.NO * 32

	smallStream := generateLayout(t, small, LayoutStream, 11)
	bigStream := generateLayout(t, big, LayoutStream, 11)
	if sb, bb := smallStream.ResidentBytes(), bigStream.ResidentBytes(); bb != sb {
		t.Errorf("streaming resident bytes grew with NO: %d -> %d", sb, bb)
	}
	bigEager := generateLayout(t, big, LayoutEagerV2, 11)
	if eb, sb := bigEager.ResidentBytes(), bigStream.ResidentBytes(); eb < 8*sb {
		t.Errorf("eager-v2 resident %d not ≫ streaming resident %d at NO=%d", eb, sb, big.NO)
	}
}

// TestEagerResidentPerObject bounds an eager base's resident bytes per
// object, in both eager layouts: its class, the start of its references,
// its instance-list entry and its references, with no per-object record on
// top of them.
func TestEagerResidentPerObject(t *testing.T) {
	p := streamTestParams()["base"]
	p.NO = 48000
	for _, layout := range []Layout{LayoutEager, LayoutEagerV2} {
		db := generateLayout(t, p, layout, 11)
		if per := float64(db.ResidentBytes()) / float64(p.NO); per > 40 {
			t.Errorf("%v base at NO=%d, NC=%d: %.1f resident bytes per object, want ≤ 40", layout, p.NO, p.NC, per)
		}
	}
}

// TestStreamCacheCappedByObjects: the direct-mapped cache holds
// min(4096, NO) lines rounded up to a power of two, so it never uses more
// slots than the base has objects, and never more than 4096.
func TestStreamCacheCappedByObjects(t *testing.T) {
	for _, c := range []struct{ objects, slots int }{
		{1, 1},
		{200, 256},
		{4097, 4096},
		{MaxNO, 4096},
	} {
		if got := streamSlotCount(c.objects); got != c.slots {
			t.Errorf("streamSlotCount(%d) = %d, want %d", c.objects, got, c.slots)
		}
	}
}

func TestLayoutValidation(t *testing.T) {
	if got := LayoutEager.String() + "/" + LayoutEagerV2.String() + "/" + LayoutStream.String(); got != "eager/eagerv2/stream" {
		t.Errorf("layout strings = %q", got)
	}
	if Layout(9).String() == "" {
		t.Error("unknown layout String empty")
	}
	p := DefaultParams()
	p.Layout = Layout(9)
	if err := p.Validate(); err == nil {
		t.Error("invalid layout accepted")
	}
}
