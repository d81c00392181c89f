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

	reorgs int

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

	// sets holds the reservation sets computed under the current
	// placement (eager stores only).
	sets refSets

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
	s := &Store{cfg: cfg}
	s.Reset(db)
	return s, nil
}

// Reset re-targets the store at db — typically the next replication's
// object base — restoring the state New(db, s.Config()) would produce
// while reusing every backing array (placement tables, per-page object
// lists). The layout and lookup results are bit-identical to a freshly
// built store.
func (s *Store) Reset(db *ocb.Database) {
	s.db = db
	s.reorgs = 0
	s.stream = db.Streaming()
	n := 0 // a streaming store keeps no per-object tables
	if !s.stream {
		n = db.NumObjects()
	}
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
	if s.stream {
		s.placeStream()
	} else {
		s.place(s.initialOrder())
	}
}

// initialOrder returns OIDs in the configured placement order, reusing the
// order scratch across Reset calls.
func (s *Store) initialOrder() []ocb.OID {
	n := s.db.NumObjects()
	order := s.orderScratch[:0]
	if cap(order) < n {
		order = make([]ocb.OID, 0, n)
	}
	switch s.cfg.Placement {
	case OptimizedSequential:
		for _, insts := range s.db.ByClass {
			order = append(order, insts...)
		}
	default: // Sequential
		for o := 0; o < n; o++ {
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

// place lays objects out in the given order (see pack) and drops the
// reservation sets of the previous placement. The directory buffers are
// recycled, so repeated placements allocate only when the page space
// outgrows its high-water mark; a fresh store sizes each in one
// allocation instead of growing it by append.
func (s *Store) place(order []ocb.OID) {
	pages := s.pack(order, 0)
	starts := slices.Grow(s.pageStart[:0], pages+1)
	arena := slices.Grow(s.pageObjArena[:0], len(order))
	s.pageStart, s.pageObjArena = s.file(starts, arena, order, pages)
	s.sets.clear()
}

// pack lays order's objects out first-fit onto fresh pages from page first
// on: each object joins the last page while it fits, and one larger than a
// page spans dedicated consecutive pages. It records each object's first
// page and span and returns the page count after the last object.
func (s *Store) pack(order []ocb.OID, first int) int {
	size := s.cfg.PageSize
	fill := size // no open page: the first object (effSize ≥ 1) opens one
	pages := first
	for _, o := range order {
		sz := s.effectiveSize(o)
		if fill+sz > size {
			pages++
			fill = 0
		}
		s.firstPage[o] = disk.PageID(pages - 1)
		// A spanning object's tail pages hold no object, and its fill,
		// past the page size, makes the next object open a fresh page.
		fill += sz
		span := (sz + size - 1) / size
		s.span[o] = int32(span)
		pages += span - 1
	}
	return pages
}

// file appends order's objects, laid out by pack, to the page directory
// (starts, arena), which already holds every page before pack's first one.
// It sets the page count and returns the directory closed by its
// sentinel. Packing in order means each object's page is the last one
// opened so far, which is what lets a flat arena replace per-page lists.
func (s *Store) file(starts []int32, arena, order []ocb.OID, pages int) ([]int32, []ocb.OID) {
	for _, o := range order {
		for len(starts) <= int(s.firstPage[o]) {
			starts = append(starts, int32(len(arena)))
		}
		arena = append(arena, o)
	}
	for len(starts) < pages { // the last spanning object's tail pages
		starts = append(starts, int32(len(arena)))
	}
	s.numPages = pages
	return append(starts, int32(len(arena))), arena // sentinel
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

// ObjectRefPages returns the distinct first pages of the objects o
// references, excluding o's own page, in ascending order. This is the
// per-object reservation set: when a system swizzles o's pointers it
// reserves address space (and frames) for exactly these pages.
func (s *Store) ObjectRefPages(o ocb.OID) []disk.PageID {
	return s.ObjectRefPagesInto(o, nil)
}

// ObjectRefPagesInto is ObjectRefPages appending into buf (usually a
// recycled scratch sliced to length zero), so the per-object hot path of
// the Texas reservation mechanism allocates nothing in steady state. An
// eager store computes each object's set once per placement and answers
// later calls from the stored copy (see refSets); a streaming store, which
// keeps no per-object tables, computes it on every call.
func (s *Store) ObjectRefPagesInto(o ocb.OID, buf []disk.PageID) []disk.PageID {
	if s.stream {
		return s.refPagesInto(o, buf)
	}
	if set, ok := s.sets.get(o); ok {
		for _, p := range set {
			buf = append(buf, disk.PageID(p))
		}
		return buf
	}
	start := len(buf)
	buf = s.refPagesInto(o, buf)
	s.sets.put(o, buf[start:], s.db.NumObjects())
	return buf
}

// refPagesInto computes o's reservation set under the current placement
// and appends it to buf.
func (s *Store) refPagesInto(o ocb.OID, buf []disk.PageID) []disk.PageID {
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
