// Layout v2: counter-based deterministic generation and the streaming
// object-base backend.
//
// The legacy scheme (LayoutEager) draws every object's references from one
// sequential stream, so object i's contents depend on all draws before it
// and the base must be materialized in full. Layout v2 breaks that chain:
// the schema and the class-population pass reuse the v1 streams unchanged,
// but OIDs become class-contiguous (class c owns the prefix-sum range
// [classStart[c], classStart[c+1])) and object o's references come from a
// private stream seeded rng.SubSeed(refBase, o). Any object is therefore
// derivable in O(MaxNRef) work from an O(classes) index, in any order —
// which is what lets LayoutEagerV2 (materialized) and LayoutStream
// (derived on demand through a bounded direct-mapped cache) produce
// bit-identical bases.
package ocb

import (
	"math/bits"
	"unsafe"

	"repro/internal/rng"
)

// streamCacheLines bounds the materialization cache. At MaxNRef = 10 this
// is ≈ 256 KiB of refs plus slot headers — comfortably above the working
// set of the paper's workloads while staying O(hot-set), not O(objects).
// The cache only trades recomputation for memory: simulation results are
// identical at every size.
const streamCacheLines = 4096

// streamSlot is one direct-mapped cache line: the object whose references
// are currently materialized in this slot, and the refs themselves (carved
// from the shared arena at slot*MaxNRef).
type streamSlot struct {
	oid  OID
	refs []OID
}

// streamBase is the mutable, per-view half of a streaming base: the
// derivation seed plus the bounded materialization cache. The immutable
// index (Classes, classStart, HotRoots) lives on the Database itself and is
// shared across StreamViews; each view gets a private streamBase so
// concurrent readers never contend on cache slots.
type streamBase struct {
	refBase uint64 // rng.SubSeed(seed, 3): base of the per-object streams
	mask    uint32 // len(slots) - 1; len(slots) is a power of two

	slots     []streamSlot
	refsArena []OID // slot i's refs live in [i*MaxNRef, (i+1)*MaxNRef)
	src       rng.Source
}

// streamSlotCount returns the cache's slot count for a base of the given
// object count: min(streamCacheLines, objects) rounded up to a power of
// two. The cache is direct-mapped by oid & mask, so slots beyond the first
// power of two ≥ objects would never be used.
func streamSlotCount(objects int) int {
	n := min(streamCacheLines, objects)
	slots := 1
	for slots < n {
		slots <<= 1
	}
	return slots
}

// resetStream points db at a streaming backend for refBase with a cache of
// slots lines (a power of two), recycling the cache storage when its
// geometry (slot count, per-slot ref capacity) fits.
func (db *Database) resetStream(refBase uint64, p Params, slots int) {
	sb := db.stream
	if sb == nil || len(sb.slots) != slots || cap(sb.refsArena) < slots*p.MaxNRef {
		sb = &streamBase{
			slots:     make([]streamSlot, slots),
			refsArena: make([]OID, slots*p.MaxNRef),
		}
		db.stream = sb
	}
	sb.refBase = refBase
	sb.mask = uint32(slots - 1)
	sb.refsArena = sb.refsArena[:slots*p.MaxNRef]
	for i := range sb.slots {
		sb.slots[i] = streamSlot{oid: NilRef}
	}
}

// materialize returns object o's references on a streaming base, deriving
// them into o's cache slot on a miss. The returned slice aliases the
// cache: it is valid until the next RefsOf call on the same Database
// (view).
func (db *Database) materialize(o OID) []OID {
	sb := db.stream
	slot := &sb.slots[uint32(o)&sb.mask]
	if slot.oid == o {
		return slot.refs
	}
	cls := db.classIndexOf(o)
	crefs := db.Classes[cls].Refs
	base := int(uint32(o)&sb.mask) * db.Params.MaxNRef
	refs := sb.refsArena[base : base : base+db.Params.MaxNRef]
	myRank := int(o - db.classStart[cls])
	sb.src.Reinit(rng.SubSeed(sb.refBase, uint64(o)))
	for _, cr := range crefs {
		refs = append(refs, db.pickRef(&sb.src, cls, myRank, cr.Target))
	}
	slot.oid, slot.refs = o, refs
	return refs
}

// classIndexOf returns the class owning OID o under the v2 class-contiguous
// assignment: the largest c with classStart[c] ≤ o. It starts from the
// class of o's bucket's first OID and steps over the class boundaries
// between that OID and o.
func (db *Database) classIndexOf(o OID) int {
	c := int(db.bucketClass[uint32(o)>>db.bucketShift])
	for db.classStart[c+1] <= o {
		c++
	}
	return c
}

// indexBuckets builds classIndexOf's bucket table over the NO OIDs from
// classStart. A bucket is 2^bucketShift OIDs wide, the largest power of two
// no wider than NO/(4·NC), or 1 if none is, so the table has at most 8·NC
// entries. Only a class boundary inside a bucket costs steps, one for each
// of the fewer than width OIDs after it in the bucket, so over all OIDs a
// lookup steps over at most NC·(width−1)/NO < 1/4 boundaries on average,
// whatever the class sizes.
func (db *Database) indexBuckets(no, nc int) {
	shift := 0
	if w := no / (4 * nc); w > 1 {
		shift = bits.Len(uint(w)) - 1
	}
	db.bucketShift = uint(shift)
	db.bucketClass = grown(db.bucketClass, (no-1)>>shift+1)
	c := 0
	for b := range db.bucketClass {
		first := OID(b << shift)
		for db.classStart[c+1] <= first {
			c++
		}
		db.bucketClass[b] = int32(c)
	}
}

// pickRef draws the target of a reference from the instance of rank
// myRank in class cls to class target. Class target owns the contiguous
// OID range [classStart[target], classStart[target+1]), so a drawn rank
// is an offset into it. Both v2 flavors draw through this function, which
// is what makes eager-v2 and streaming bit-identical by construction.
func (db *Database) pickRef(src *rng.Source, cls, myRank, target int) OID {
	lo := db.classStart[target]
	k := pickRank(src, db.Params.ObjectLocality, int(db.classStart[target+1]-lo), myRank, selfRank(target, cls, myRank))
	if k < 0 {
		return NilRef
	}
	return lo + OID(k)
}

// generateV2 builds a v2 base into db: schema and class-population draws
// identical to v1, then either full materialization (LayoutEagerV2) or just
// the index plus a cold cache (LayoutStream).
func generateV2(db *Database, p Params, seed uint64) error {
	classSrc, objSrc := &db.classSrc, &db.objSrc
	classSrc.Reinit(rng.SubSeed(seed, 1))
	objSrc.Reinit(rng.SubSeed(seed, 2))
	db.Params = p
	db.generateSchema(p, classSrc)

	// Class population: the same objSrc draws as the v1 instance loop, but
	// only per-class counts are retained; the prefix sums assign class c
	// the OID range [classStart[c], classStart[c+1]). This pass is O(NO)
	// time but O(classes) memory. Object o < NC takes class o, which
	// guarantees every class an instance; the uniform draws of the rest
	// run in one TallyIntn loop.
	db.counts = grown(db.counts, p.NC)
	counts := db.counts
	for c := range counts {
		counts[c] = 1
	}
	if p.ObjClassDist == Zipf {
		objClassZipf := db.objZipf.get(objSrc, p.NC, p.ZipfTheta)
		for o := p.NC; o < p.NO; o++ {
			counts[objClassZipf.Next()]++
		}
	} else {
		objSrc.TallyIntn(counts, p.NO-p.NC)
	}
	db.classStart = grown(db.classStart, p.NC+1)
	off := OID(0)
	for c := 0; c < p.NC; c++ {
		db.classStart[c] = off
		off += OID(counts[c])
	}
	db.classStart[p.NC] = off
	db.indexBuckets(p.NO, p.NC)

	// Hot roots: Floyd's distinct sampling replaces the v1 full
	// permutation, so the root draw is O(HotRootCount) in both time and
	// memory instead of O(NO).
	db.HotRoots = db.HotRoots[:0]
	if p.HotRootCount > 0 {
		var hotSrc rng.Source
		hotSrc.Reinit(rng.SubSeed(seed, 4))
		db.HotRoots = grown(db.HotRoots, p.HotRootCount)[:0]
		if db.hotSet == nil {
			db.hotSet = make(map[OID]struct{}, p.HotRootCount)
		} else {
			clear(db.hotSet)
		}
		for j := p.NO - p.HotRootCount; j < p.NO; j++ {
			t := OID(hotSrc.Intn(j + 1))
			if _, dup := db.hotSet[t]; dup {
				t = OID(j)
			}
			db.hotSet[t] = struct{}{}
			db.HotRoots = append(db.HotRoots, t)
		}
	}

	refBase := rng.SubSeed(seed, 3)
	if p.Layout == LayoutStream {
		// Release the O(objects + refs) arenas: only the index (Classes,
		// classStart, HotRoots) and the bounded cache stay resident. A
		// later eager rebuild re-grows them.
		db.objClass = nil
		db.refStart = nil
		db.ByClass = nil
		db.byClassArena = nil
		db.refArena = nil
		db.permScratch = nil
		db.resetStream(refBase, p, streamSlotCount(p.NO))
		return nil
	}

	// LayoutEagerV2: materialize the identical base. Class-contiguity
	// makes the per-class instance lists plain consecutive runs of the
	// identity arena, and the materialization loop below walks classes in
	// order — which is OID order.
	db.stream = nil
	db.sizeObjectTables(p.NO)
	db.ByClass = grown(db.ByClass, p.NC)
	db.byClassArena = grown(db.byClassArena, p.NO)
	for i := range db.byClassArena {
		db.byClassArena[i] = OID(i)
	}
	totalRefs := 0
	for c := 0; c < p.NC; c++ {
		lo, hi := db.classStart[c], db.classStart[c+1]
		db.ByClass[c] = db.byClassArena[lo:hi:hi]
		totalRefs += int(hi-lo) * len(db.Classes[c].Refs)
	}
	db.refArena = grown(db.refArena, totalRefs)
	src := &db.refSrc
	refOff := 0
	for c := 0; c < p.NC; c++ {
		crefs := db.Classes[c].Refs
		lo, hi := db.classStart[c], db.classStart[c+1]
		for o := lo; o < hi; o++ {
			db.objClass[o] = int32(c)
			db.refStart[o] = int32(refOff)
			src.Reinit(rng.SubSeed(refBase, uint64(o)))
			myRank := int(o - lo)
			for _, cr := range crefs {
				db.refArena[refOff] = db.pickRef(src, c, myRank, cr.Target)
				refOff++
			}
		}
	}
	db.refStart[p.NO] = int32(refOff)
	return nil
}

// Streaming reports whether db derives objects on demand (LayoutStream).
func (db *Database) Streaming() bool { return db.stream != nil }

// NumObjects returns the number of objects in the base, whatever its
// layout: OIDs are 0 … NumObjects()−1.
func (db *Database) NumObjects() int { return db.Params.NO }

// ClassOf returns the class index of object o.
func (db *Database) ClassOf(o OID) int32 {
	if db.stream == nil {
		return db.objClass[o]
	}
	return int32(db.classIndexOf(o))
}

// SizeOf returns the instance size of object o in bytes: its class's.
func (db *Database) SizeOf(o OID) int32 {
	return int32(db.Classes[db.ClassOf(o)].InstanceSize)
}

// RefsOf returns object o's references: the target OID of each of its
// class's references, in declaration order, NilRef where the target class
// had no instance available. Callers must not write to the slice. On an
// eager base it aliases the reference arena and stays valid for the
// database's lifetime; on a streaming base it aliases the materialization
// cache and is only guaranteed valid until the next RefsOf call on the
// same Database (view) — callers that hold references across further
// lookups must copy. Its body stays within the compiler's inlining
// budget, so a traversal pays no call per object.
func (db *Database) RefsOf(o OID) []OID {
	if db.stream != nil {
		return db.materialize(o)
	}
	return db.refArena[db.refStart[o]:db.refStart[o+1]]
}

// ClassCount returns how many instances class c has.
func (db *Database) ClassCount(c int) int {
	if len(db.classStart) > 0 {
		return int(db.classStart[c+1] - db.classStart[c])
	}
	return len(db.ByClass[c])
}

// ClassRange returns class c's contiguous OID range [lo, hi) under the v2
// layouts. It is only meaningful for LayoutEagerV2 and LayoutStream bases
// (v1 interleaves classes across the OID space); ok reports whether the
// base has class-contiguous OIDs.
func (db *Database) ClassRange(c int) (lo, hi OID, ok bool) {
	if len(db.classStart) == 0 {
		return 0, 0, false
	}
	return db.classStart[c], db.classStart[c+1], true
}

// StreamView returns a read-only view of db sharing its immutable index
// (schema, prefix sums and their bucket table, hot roots) but owning a
// private materialization cache, so concurrent replications can derive
// objects without contending on cache slots. For an eager base — already safe to share — it returns db
// itself. Views must never be passed to GenerateInto.
func (db *Database) StreamView() *Database {
	if db.stream == nil {
		return db
	}
	v := &Database{}
	*v = *db
	v.classZipf, v.objZipf = zipfCache{}, zipfCache{}
	v.hotSet = nil
	v.stream = nil
	v.resetStream(db.stream.refBase, db.Params, len(db.stream.slots))
	return v
}

// ResidentBytes returns the retained heap footprint of the object base
// itself: arenas, index structures and (for a streaming base) the
// materialization cache. It is the memory a replication keeps alive between
// batches, not transient generation scratch — the quantity the O(hot-set)
// claim is about.
func (db *Database) ResidentBytes() int64 {
	var n int64
	n += int64(cap(db.Classes)) * int64(unsafe.Sizeof(Class{}))
	n += int64(cap(db.classRefArena)) * int64(unsafe.Sizeof(ClassRef{}))
	n += int64(cap(db.ByClass)) * int64(unsafe.Sizeof([]OID{}))
	oidSize := int64(unsafe.Sizeof(OID(0)))
	n += int64(cap(db.byClassArena)+cap(db.refArena)+cap(db.HotRoots)+cap(db.classStart)) * oidSize
	n += int64(cap(db.objClass)+cap(db.refStart)+cap(db.bucketClass)) * int64(unsafe.Sizeof(int32(0)))
	n += int64(cap(db.counts)+cap(db.permScratch)) * int64(unsafe.Sizeof(int(0)))
	if db.stream != nil {
		n += int64(cap(db.stream.slots)) * int64(unsafe.Sizeof(streamSlot{}))
		n += int64(cap(db.stream.refsArena)) * oidSize
	}
	return n
}
