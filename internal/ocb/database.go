package ocb

import (
	"fmt"

	"repro/internal/rng"
)

// OID identifies an object instance; OIDs are dense in [0, NO).
// These are the *logical* identifiers of the object graph — the storage
// layer decides whether the modelled system exposes them logically or
// physically (the Table 6 distinction).
type OID int32

// ClassRef is one reference declared by a class.
type ClassRef struct {
	Target int   // target class index
	Type   uint8 // reference type in [0, NRefT); 0 = hierarchy
}

// Class is a schema class.
type Class struct {
	ID           int
	InstanceSize int // bytes per instance
	Refs         []ClassRef
}

// NilRef marks an unresolvable object reference.
const NilRef OID = -1

// Database is a generated OCB object base.
//
// A Database is immutable once generated: the simulator only ever reads it
// (storage placement, workload draws, and reorganizations all keep their
// own state), so one Database may be shared across concurrent replications.
// GenerateInto is the one exception — it rebuilds the receiver in place.
//
// An object's size and reference count are its class's, so an eager base
// keeps two int32s per object: its class (objClass) and the start of its
// references in refArena (refStart, len NO+1, so object o's references
// are refArena[refStart[o]:refStart[o+1]]). A streaming base keeps
// neither. ClassOf, SizeOf, RefsOf and NumObjects are the per-object reads,
// whatever the layout.
type Database struct {
	Params  Params
	Classes []Class
	// ByClass lists the OIDs of each class's instances in creation order.
	ByClass [][]OID
	// HotRoots is the fixed root population when Params.HotRootCount > 0
	// (empty otherwise). It is part of the database — derived from the
	// database seed — so every workload drawn over this base shares it.
	HotRoots []OID

	// Generation arenas and scratch, recycled by GenerateInto so a
	// replication context rebuilds its database in O(touched) allocations
	// instead of O(NO). The streams live here (not as locals) so taking
	// their address for the Zipf samplers cannot force a heap escape.
	classRefArena []ClassRef
	byClassArena  []OID
	objClass      []int32
	refStart      []int32
	refArena      []OID
	counts        []int
	permScratch   []int
	classSrc      rng.Source
	objSrc        rng.Source
	refSrc        rng.Source
	classZipf     zipfCache
	objZipf       zipfCache

	// Layout v2 state (see layoutv2.go): classStart holds the prefix-sum
	// OID ranges of the class-contiguous assignment (len NC+1, empty on a
	// v1 base), bucketClass holds the class of every 2^bucketShift-th OID
	// (classIndexOf's start), hotSet is the Floyd-sampling scratch, and
	// stream is the on-demand backend — non-nil exactly for LayoutStream
	// bases.
	classStart  []OID
	bucketClass []int32
	bucketShift uint
	hotSet      map[OID]struct{}
	stream      *streamBase
}

// zipfCache memoizes a Zipf sampler keyed by its support and skew. The cdf
// depends only on (n, theta) and the stream pointer is stable (it lives in
// the same Database), so a warm rebuild with unchanged parameters reuses
// the sampler instead of reallocating an O(n) cdf.
type zipfCache struct {
	z     *rng.Zipf
	n     int
	theta float64
}

// get returns the cached sampler for (src, n, theta), rebuilding on change.
func (c *zipfCache) get(src *rng.Source, n int, theta float64) *rng.Zipf {
	if c.z == nil || c.n != n || c.theta != theta {
		c.z = rng.NewZipf(src, n, theta)
		c.n, c.theta = n, theta
	}
	return c.z
}

// grown returns s resized to n elements, reusing its backing array when the
// capacity suffices. Callers overwrite every element, so no zeroing is
// needed on reuse.
func grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Generate builds a random object base from p, deterministically for a
// given seed. It returns an error if p is invalid.
func Generate(p Params, seed uint64) (*Database, error) {
	db := &Database{}
	if err := GenerateInto(db, p, seed); err != nil {
		return nil, err
	}
	return db, nil
}

// GenerateInto rebuilds db in place as Generate(p, seed) would, reusing a
// previously generated database's arenas (objects, per-class instance
// lists, reference arenas, the hot-root permutation scratch). The produced
// base is bit-identical to Generate's — same streams, same draw order —
// but a warm rebuild allocates only where a structure outgrew its previous
// capacity. This is both the per-worker replication path and the cache-miss
// path of the sweep-level object-base cache.
func GenerateInto(db *Database, p Params, seed uint64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Layout != LayoutEager {
		return generateV2(db, p, seed)
	}
	classSrc, objSrc, refSrc := &db.classSrc, &db.objSrc, &db.refSrc
	classSrc.Reinit(rng.SubSeed(seed, 1))
	objSrc.Reinit(rng.SubSeed(seed, 2))
	refSrc.Reinit(rng.SubSeed(seed, 3))

	db.Params = p
	db.stream = nil
	db.classStart = db.classStart[:0] // v1 OIDs are not class-contiguous

	db.generateSchema(p, classSrc)

	// --- instances ---
	// ByClass is carved out of one backing arena: a first pass assigns
	// classes (consuming the object stream exactly as before) and counts
	// instances per class, then each class's slice is sized into the arena
	// and filled in OID order — the same content the old per-class appends
	// produced, without NC growing slices.
	db.sizeObjectTables(p.NO)
	db.ByClass = grown(db.ByClass, p.NC)
	var objClassZipf *rng.Zipf
	if p.ObjClassDist == Zipf {
		objClassZipf = db.objZipf.get(objSrc, p.NC, p.ZipfTheta)
	}
	db.counts = grown(db.counts, p.NC)
	counts := db.counts
	clear(counts)
	totalRefs := 0
	for o := 0; o < p.NO; o++ {
		var cls int
		if o < p.NC {
			cls = o // guarantee every class at least one instance
		} else if objClassZipf != nil {
			cls = objClassZipf.Next()
		} else {
			cls = objSrc.Intn(p.NC)
		}
		db.objClass[o] = int32(cls)
		counts[cls]++
		totalRefs += len(db.Classes[cls].Refs)
	}
	db.byClassArena = grown(db.byClassArena, p.NO)
	off := 0
	for c := range db.ByClass {
		db.ByClass[c] = db.byClassArena[off : off : off+counts[c]]
		off += counts[c]
	}
	for o, cls := range db.objClass {
		db.ByClass[cls] = append(db.ByClass[cls], OID(o))
	}

	// --- hot root population ---
	db.HotRoots = db.HotRoots[:0]
	if p.HotRootCount > 0 {
		var hotSrc rng.Source
		hotSrc.Reinit(rng.SubSeed(seed, 4))
		db.permScratch = hotSrc.PermInto(db.permScratch, p.NO)
		db.HotRoots = grown(db.HotRoots, p.HotRootCount)
		for i := range db.HotRoots {
			db.HotRoots[i] = OID(db.permScratch[i])
		}
	}

	// --- object references ---
	// Every object's references are one run of the reference arena, in OID
	// order. Objects are visited in OID order, the order ByClass lists them
	// in, so counts — free once ByClass is carved — becomes each class's
	// running rank.
	db.refArena = grown(db.refArena, totalRefs)
	clear(counts)
	off = 0
	for o, c := range db.objClass {
		cls := int(c)
		db.refStart[o] = int32(off)
		myRank := counts[cls]
		counts[cls]++
		for _, cr := range db.Classes[cls].Refs {
			cands := db.ByClass[cr.Target]
			db.refArena[off] = NilRef
			if k := pickRank(refSrc, p.ObjectLocality, len(cands), myRank, selfRank(cr.Target, cls, myRank)); k >= 0 {
				db.refArena[off] = cands[k]
			}
			off++
		}
	}
	db.refStart[p.NO] = int32(off)
	return nil
}

// sizeObjectTables sizes the per-object tables, objClass and refStart, for
// no objects. When either must grow, both are carved from one new
// allocation, so an eager base allocates no more often than one table of
// records would.
func (db *Database) sizeObjectTables(no int) {
	if cap(db.objClass) < no || cap(db.refStart) < no+1 {
		t := make([]int32, 2*no+1)
		db.objClass, db.refStart = t[:no:no], t[no:]
	}
	db.objClass, db.refStart = db.objClass[:no], db.refStart[:no+1]
}

// generateSchema draws the NC-class schema from classSrc — shared verbatim
// by the v1 and v2 layouts, which consume the class stream identically.
// Per-class reference lists are carved from one arena sized to the
// NC·MaxNRef upper bound, so carving never reallocates mid-loop (the
// nrefs draws interleave with the other schema draws).
func (db *Database) generateSchema(p Params, classSrc *rng.Source) {
	db.Classes = grown(db.Classes, p.NC)
	maxClassRefs := p.NC * p.MaxNRef
	if cap(db.classRefArena) < maxClassRefs {
		db.classRefArena = make([]ClassRef, 0, maxClassRefs)
	} else {
		db.classRefArena = db.classRefArena[:0]
	}
	var classZipf *rng.Zipf
	if p.ClassRefDist == Zipf {
		classZipf = db.classZipf.get(classSrc, p.NC, p.ZipfTheta)
	}
	for i := range db.Classes {
		c := &db.Classes[i]
		c.ID = i
		c.InstanceSize = p.BaseSize * classSrc.IntRange(1, p.SizeMult)
		nrefs := classSrc.IntRange(1, p.MaxNRef)
		start := len(db.classRefArena)
		for r := 0; r < nrefs; r++ {
			db.classRefArena = append(db.classRefArena, ClassRef{
				Target: pickClass(classSrc, classZipf, p, i),
				Type:   pickRefType(classSrc, p),
			})
		}
		c.Refs = db.classRefArena[start:len(db.classRefArena):len(db.classRefArena)]
	}
}

// pickRefType draws a reference type, biasing type 0 (hierarchy) when
// TypeZeroBias is set.
func pickRefType(src *rng.Source, p Params) uint8 {
	if p.TypeZeroBias > 0 {
		if src.Bernoulli(p.TypeZeroBias) {
			return 0
		}
		if p.NRefT == 1 {
			return 0
		}
		return uint8(1 + src.Intn(p.NRefT-1))
	}
	return uint8(src.Intn(p.NRefT))
}

// pickClass selects a reference target class for class i, honouring the
// configured distribution and class locality.
func pickClass(src *rng.Source, zipf *rng.Zipf, p Params, i int) int {
	if p.ClassLocality < p.NC {
		lo := i - p.ClassLocality
		if lo < 0 {
			lo = 0
		}
		hi := i + p.ClassLocality
		if hi > p.NC-1 {
			hi = p.NC - 1
		}
		return src.IntRange(lo, hi)
	}
	if zipf != nil {
		return zipf.Next()
	}
	return src.Intn(p.NC)
}

// pickRank draws the rank of a reference's target instance within a target
// class of count ≥ 1 instances, honouring object locality: the window is
// the ranks within objectLocality of the requester's rank myRank, projected
// into the target class's rank range (classes differ in size). A draw of
// selfRank, the rank that denotes the requester itself, is retried up to
// four times; if the requester is its target class's only instance, the
// reference is nil and pickRank returns −1. Both layouts share it: v1 maps
// the rank through ByClass, v2 adds the class's first OID.
func pickRank(src *rng.Source, objectLocality, count, myRank, selfRank int) int {
	lo, span := 0, count
	if objectLocality < count {
		center := min(myRank, count-1)
		lo = max(center-objectLocality, 0)
		span = min(center+objectLocality, count-1) - lo + 1
	}
	k := lo + src.Intn(span)
	for retry := 0; k == selfRank && retry < 4; retry++ {
		k = lo + src.Intn(span)
	}
	if k == selfRank && count == 1 {
		return -1
	}
	return k
}

// selfRank is the rank that denotes the requester, of rank myRank in class
// cls, within a reference's target class: myRank when the reference targets
// cls itself, and −1 otherwise, since class instance sets are disjoint.
func selfRank(target, cls, myRank int) int {
	if target == cls {
		return myRank
	}
	return -1
}

// TotalBytes returns the sum of all instance sizes (the logical base size,
// before any storage overhead), computed from the per-class counts in
// O(classes).
func (db *Database) TotalBytes() int64 {
	var total int64
	for c := range db.Classes {
		total += int64(db.Classes[c].InstanceSize) * int64(db.ClassCount(c))
	}
	return total
}

// AvgRefs returns the mean number of declared references per object.
func (db *Database) AvgRefs() float64 {
	var total int
	for c := range db.Classes {
		total += len(db.Classes[c].Refs) * db.ClassCount(c)
	}
	return float64(total) / float64(db.NumObjects())
}

// Stats summarizes the generated base for reports and cmd/ocbgen.
type Stats struct {
	Classes      int
	Objects      int
	TotalBytes   int64
	AvgObjSize   float64
	AvgRefs      float64
	NilRefs      int
	MinClassSize int
	MaxClassSize int
}

// ComputeStats gathers Stats over the base. On a streaming base the
// NilRefs count derives every object once (O(NO) recomputation, O(1)
// memory) — this is a reporting path, not a hot path.
func (db *Database) ComputeStats() Stats {
	s := Stats{
		Classes:      len(db.Classes),
		Objects:      db.NumObjects(),
		TotalBytes:   db.TotalBytes(),
		AvgRefs:      db.AvgRefs(),
		MinClassSize: 1 << 30,
	}
	if s.Objects > 0 {
		s.AvgObjSize = float64(s.TotalBytes) / float64(s.Objects)
	}
	for o := 0; o < s.Objects; o++ {
		for _, r := range db.RefsOf(OID(o)) {
			if r == NilRef {
				s.NilRefs++
			}
		}
	}
	for c := 0; c < len(db.Classes); c++ {
		n := db.ClassCount(c)
		if n < s.MinClassSize {
			s.MinClassSize = n
		}
		if n > s.MaxClassSize {
			s.MaxClassSize = n
		}
	}
	return s
}

// String formats the stats for humans.
func (s Stats) String() string {
	return fmt.Sprintf(
		"classes=%d objects=%d size=%.1f MB avgObj=%.0f B avgRefs=%.2f nilRefs=%d class instances=[%d..%d]",
		s.Classes, s.Objects, float64(s.TotalBytes)/1e6, s.AvgObjSize, s.AvgRefs, s.NilRefs,
		s.MinClassSize, s.MaxClassSize)
}
