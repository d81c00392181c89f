// Package storage implements the object-store substrate of VOODB: the
// mapping of OCB objects onto disk pages.
//
// It provides the two initial-placement policies of Table 3 (Sequential and
// Optimized Sequential), page-granular lookups for the Object Manager,
// cluster-ordered reorganization for the Clustering Manager, and the
// logical-versus-physical OID distinction that explains the Table 6
// overhead discrepancy: a store with physical OIDs must scan the whole
// database after a reorganization to fix references to moved objects,
// whereas a store with logical OIDs only moves the objects themselves.
package storage

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/disk"
	"repro/internal/ocb"
)

// Placement selects the initial object placement policy (Table 3 INITPL).
type Placement uint8

const (
	// Sequential places objects in OID order.
	Sequential Placement = iota
	// OptimizedSequential groups instances by class (then OID order), so
	// class-mates — which set-oriented accesses touch together — share
	// pages. This is the paper's default and the Table 4 setting.
	OptimizedSequential
)

// String returns the placement name.
func (p Placement) String() string {
	switch p {
	case Sequential:
		return "Sequential"
	case OptimizedSequential:
		return "Optimized Sequential"
	default:
		return fmt.Sprintf("Placement(%d)", p)
	}
}

// Config parameterizes a store.
type Config struct {
	// PageSize is the disk page size in bytes (Table 3 PGSIZE, 4096).
	PageSize int
	// Overhead multiplies every object's logical size to model the
	// system's storage overhead (headers, alignment, free space). The O₂
	// base of the paper is ≈ 28 MB and the Texas base ≈ 21 MB for the same
	// 20 MB of logical data — this factor is how the presets express that.
	Overhead float64
	// Placement is the initial placement policy.
	Placement Placement
	// PhysicalOIDs marks stores (like Texas) whose object identifiers
	// encode the physical location, making reorganization pay a
	// database-wide reference-fixup scan.
	PhysicalOIDs bool
}

// DefaultConfig returns the Table 3 defaults.
func DefaultConfig() Config {
	return Config{PageSize: 4096, Overhead: 1.0, Placement: OptimizedSequential}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PageSize < 64 {
		return fmt.Errorf("storage: page size %d too small", c.PageSize)
	}
	if c.Overhead < 1 || math.IsNaN(c.Overhead) {
		return fmt.Errorf("storage: overhead %v must be ≥ 1", c.Overhead)
	}
	return nil
}

// Store maps every object of an OCB database to disk pages.
type Store struct {
	cfg Config
	db  *ocb.Database

	firstPage []disk.PageID // OID → first page
	span      []int32       // OID → number of consecutive pages occupied
	numPages  int

	// Page directory: page p's objects (those whose first page is p) are
	// pageObjArena[pageStart[p]:pageStart[p+1]]. One dense arena plus an
	// offset table replaces a [][]OID of one small allocation per page —
	// O(pages) fewer allocations and ~3× less header overhead on a
	// 20000-object base. The scratch pair double-buffers Reorganize, which
	// rebuilds the directory out of place and swaps.
	pageStart        []int32
	pageObjArena     []ocb.OID
	pageStartScratch []int32
	pageObjArenaSwap []ocb.OID

	refCache map[disk.PageID][]disk.PageID
	reorgs   int

	// Reorganize's scratch, recycled across calls: one mark per object
	// and per page (all clear between calls), and the three page lists
	// ReorgStats views.
	inCluster    []bool
	pageMarks    []uint8
	oldPageList  []disk.PageID
	newPageList  []disk.PageID
	scanPageList []disk.PageID

	// orderScratch backs initialOrder and Reorganize's placement order,
	// recycled across calls.
	orderScratch []ocb.OID

	// Streaming mode (see stream.go): when the database is a streaming
	// base, placement is the O(classes) extent table instead of the
	// per-object tables above, and objsScratch backs ObjectsOn results.
	stream      bool
	ext         []classExtent
	objsScratch []ocb.OID
}

// New builds a store for db with the given configuration, laying objects
// out according to cfg.Placement.
func New(db *ocb.Database, cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Store{
		cfg:       cfg,
		db:        db,
		firstPage: make([]disk.PageID, len(db.Objects)),
		span:      make([]int32, len(db.Objects)),
	}
	if db.Streaming() {
		s.stream = true
		s.placeStream()
	} else {
		s.place(s.initialOrder())
	}
	return s, nil
}

// Reset re-targets the store at db — typically the next replication's
// object base — restoring the state New(db, s.Config()) would produce
// while reusing every backing array (placement tables, per-page object
// lists, the reference cache's buckets). The layout and lookup results are
// bit-identical to a freshly built store.
func (s *Store) Reset(db *ocb.Database) {
	s.db = db
	n := len(db.Objects)
	if cap(s.firstPage) >= n {
		s.firstPage = s.firstPage[:n]
	} else {
		s.firstPage = make([]disk.PageID, n)
	}
	if cap(s.span) >= n {
		s.span = s.span[:n]
	} else {
		s.span = make([]int32, n)
	}
	s.reorgs = 0
	if s.stream = db.Streaming(); s.stream {
		s.placeStream()
	} else {
		s.place(s.initialOrder())
	}
}

// initialOrder returns OIDs in the configured placement order, reusing the
// order scratch across Reset calls.
func (s *Store) initialOrder() []ocb.OID {
	order := s.orderScratch[:0]
	if cap(order) < len(s.db.Objects) {
		order = make([]ocb.OID, 0, len(s.db.Objects))
	}
	switch s.cfg.Placement {
	case OptimizedSequential:
		for _, insts := range s.db.ByClass {
			order = append(order, insts...)
		}
	default: // Sequential
		for o := range s.db.Objects {
			order = append(order, ocb.OID(o))
		}
	}
	s.orderScratch = order
	return order
}

// effectiveSize returns the on-disk footprint of object o in bytes.
func (s *Store) effectiveSize(o ocb.OID) int {
	return s.effSize(int(s.db.SizeOf(o)))
}

// place lays objects out in the given order, first-fit into consecutive
// pages; an object larger than a page spans dedicated consecutive pages.
// The directory buffers are recycled, so repeated placements allocate only
// when the page space outgrows its high-water mark. Placement order means
// the current page is always the last directory entry, which is what lets
// a flat arena replace per-page lists.
func (s *Store) place(order []ocb.OID) {
	starts := s.pageStart[:0]
	arena := s.pageObjArena[:0]
	cur := -1 // current page index
	fill := 0 // bytes used on current page
	newPage := func() {
		starts = append(starts, int32(len(arena)))
		cur = len(starts) - 1
		fill = 0
	}
	for _, o := range order {
		sz := s.effectiveSize(o)
		if sz > s.cfg.PageSize {
			// Spanning object: dedicated consecutive pages.
			n := (sz + s.cfg.PageSize - 1) / s.cfg.PageSize
			newPage()
			s.firstPage[o] = disk.PageID(cur)
			s.span[o] = int32(n)
			arena = append(arena, o)
			for i := 1; i < n; i++ {
				newPage()
			}
			fill = s.cfg.PageSize // force a fresh page next
			continue
		}
		if cur < 0 || fill+sz > s.cfg.PageSize {
			newPage()
		}
		s.firstPage[o] = disk.PageID(cur)
		s.span[o] = 1
		arena = append(arena, o)
		fill += sz
	}
	s.numPages = len(starts)
	starts = append(starts, int32(len(arena))) // sentinel
	s.pageStart, s.pageObjArena = starts, arena
	s.resetRefCache()
}

// resetRefCache empties the reference-page cache, keeping the map's
// buckets so repeated placements do not regrow it from scratch.
func (s *Store) resetRefCache() {
	if s.refCache == nil {
		s.refCache = make(map[disk.PageID][]disk.PageID)
	} else {
		clear(s.refCache)
	}
}

// Database returns the underlying object base.
func (s *Store) Database() *ocb.Database { return s.db }

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// NumPages returns the number of allocated pages.
func (s *Store) NumPages() int { return s.numPages }

// TotalBytes returns the on-disk footprint including overhead.
func (s *Store) TotalBytes() int64 {
	return int64(s.numPages) * int64(s.cfg.PageSize)
}

// Pages returns the pages object o occupies: its first page and span.
func (s *Store) Pages(o ocb.OID) (first disk.PageID, span int) {
	if s.stream {
		return s.streamPages(o)
	}
	return s.firstPage[o], int(s.span[o])
}

// PageOf returns the first page of object o.
func (s *Store) PageOf(o ocb.OID) disk.PageID {
	if s.stream {
		p, _ := s.streamPages(o)
		return p
	}
	return s.firstPage[o]
}

// ObjectsOn returns the objects whose first page is p (empty for pages
// that only hold the tail of a spanning object). The returned slice views
// the store's page directory and is valid until the next Reset or
// Reorganize; on a streaming store it views a reused scratch and is only
// valid until the next ObjectsOn call.
func (s *Store) ObjectsOn(p disk.PageID) []ocb.OID {
	if s.stream {
		return s.streamObjectsOn(p)
	}
	if p < 0 || int(p) >= s.numPages {
		return nil
	}
	lo, hi := s.pageStart[p], s.pageStart[p+1]
	return s.pageObjArena[lo:hi:hi]
}

// ReferencedPages returns the distinct pages referenced by the objects on
// page p, excluding p itself, in ascending order. This is the reservation
// set of the Texas virtual-memory emulation: faulting p reserves these
// pages. Results are cached until the next reorganization.
func (s *Store) ReferencedPages(p disk.PageID) []disk.PageID {
	if cached, ok := s.refCache[p]; ok {
		return cached
	}
	var out []disk.PageID
	for _, o := range s.ObjectsOn(p) {
		for _, t := range s.db.RefsOf(o) {
			if t == ocb.NilRef {
				continue
			}
			if tp := s.PageOf(t); tp != p {
				out = append(out, tp)
			}
		}
	}
	// Deterministic order for reproducible simulations.
	out = sortUniquePages(out)
	s.refCache[p] = out
	return out
}

// ObjectRefPages returns the distinct first pages of the objects o
// references, excluding o's own page, in ascending order. This is the
// per-object reservation set: when a system swizzles o's pointers it
// reserves address space (and frames) for exactly these pages.
func (s *Store) ObjectRefPages(o ocb.OID) []disk.PageID {
	return s.ObjectRefPagesInto(o, nil)
}

// ObjectRefPagesInto is ObjectRefPages appending into buf (usually a
// recycled scratch sliced to length zero), so the per-object hot path of
// the Texas reservation mechanism allocates nothing in steady state.
func (s *Store) ObjectRefPagesInto(o ocb.OID, buf []disk.PageID) []disk.PageID {
	own := s.PageOf(o)
	start := len(buf)
	for _, t := range s.db.RefsOf(o) {
		if t == ocb.NilRef {
			continue
		}
		if tp := s.PageOf(t); tp != own {
			buf = append(buf, tp)
		}
	}
	uniq := sortUniquePages(buf[start:])
	return buf[:start+len(uniq)]
}

// sortUniquePages sorts ps ascending and drops repeats in place, returning
// the distinct prefix. A reference set is a few dozen pages, so sorting it
// costs less than keeping a visited table sized by the page count.
func sortUniquePages(ps []disk.PageID) []disk.PageID {
	slices.Sort(ps)
	return slices.Compact(ps)
}

// Reorgs returns how many reorganizations the store has undergone.
func (s *Store) Reorgs() int { return s.reorgs }
