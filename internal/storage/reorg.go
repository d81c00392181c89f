package storage

import (
	"slices"

	"repro/internal/disk"
	"repro/internal/ocb"
)

// ReorgStats accounts for the physical work of a reorganization. The
// Clustering Manager turns these counts into I/Os and simulated time.
type ReorgStats struct {
	// ClustersPlaced is the number of clusters laid out contiguously.
	ClustersPlaced int
	// ObjectsMoved counts objects whose page assignment changed.
	ObjectsMoved int
	// PagesRead is the number of old pages read to pick up moved objects.
	PagesRead int
	// PagesWritten is the number of new pages written (clustered region
	// plus rewritten displaced pages).
	PagesWritten int
	// ScanReads is the database-wide scan cost paid only by physical-OID
	// stores: every page is read to find references to moved objects.
	ScanReads int
	// ScanWrites counts pages rewritten by that scan because they hold at
	// least one reference to a moved object.
	ScanWrites int

	// OldPageList lists the distinct old pages of moved objects in
	// ascending order; the core model charges a disk read for each that is
	// not buffer-resident when the reorganization runs.
	//
	// The three page lists view the store's recycled scratch: they stay
	// valid until the next Reorganize or Reset. Copy them to keep them.
	OldPageList []disk.PageID
	// NewPageList lists the distinct new pages of moved objects in
	// ascending order; each costs a disk write.
	NewPageList []disk.PageID
	// ScanWritePages lists the pages the physical-OID fixup scan rewrites
	// (ascending, old numbering); empty for logical-OID stores.
	ScanWritePages []disk.PageID
	// OldPageCount is the page count before the reorganization (the scan
	// reads all of them sequentially).
	OldPageCount int
}

// TotalIOs returns the reorganization's total I/O count — the paper's
// "clustering overhead" metric of Table 6.
func (r ReorgStats) TotalIOs() int {
	return r.PagesRead + r.PagesWritten + r.ScanReads + r.ScanWrites
}

// Page marks Reorganize sets while it works, one byte per page.
const (
	markOld  uint8 = 1 << iota // old page of a moved object
	markNew                    // new page of a moved object
	markScan                   // old page the physical-OID fixup scan rewrites
)

// Reorganize moves each cluster's objects onto fresh, contiguous pages
// appended after the existing ones, in the given cluster order; objects not
// in any cluster stay exactly where they are (the vacated space is left as
// holes, as DSTC's copy-to-new-region reorganization does). Objects listed
// in several clusters keep their first occurrence. It returns the physical
// cost of the move, including the reference-fixup scan when the store uses
// physical OIDs. Its scratch is recycled, so a warmed store reorganizes
// without allocating.
func (s *Store) Reorganize(clusters [][]ocb.OID) ReorgStats {
	if s.stream {
		// Streaming placement is derived arithmetically from the class
		// extents; there is no per-object directory to rewrite. core.NewRun
		// rejects clustering configurations on streaming bases before any
		// simulation starts, so reaching this is a programming error.
		panic("storage: Reorganize is not supported on a streaming object base")
	}
	var st ReorgStats
	if len(clusters) == 0 {
		return st
	}
	oldPages := s.numPages

	// Every clustered object moves: its new first page lies past the old
	// pages. Unclustered objects keep their pages. Both the object marks
	// and the page marks are all clear between calls.
	inCluster := resized(s.inCluster, len(s.db.Objects))
	order := s.orderScratch[:0]
	for _, cl := range clusters {
		placed := false
		for _, o := range cl {
			if inCluster[o] {
				continue
			}
			inCluster[o] = true
			order = append(order, o)
			placed = true
		}
		if placed {
			st.ClustersPlaced++
		}
	}
	st.ObjectsMoved = len(order)

	// Mark the old pages before the directory changes: those of the moved
	// objects and, with physical OIDs, those of every object referencing a
	// moved one (the fixup scan rewrites them).
	marks := resized(s.pageMarks, oldPages)
	for _, o := range order {
		marks[s.firstPage[o]] |= markOld
	}
	scan := s.cfg.PhysicalOIDs && len(order) > 0
	if scan {
		for o := range s.db.Objects {
			for _, t := range s.db.Objects[o].Refs {
				if t != ocb.NilRef && inCluster[t] {
					marks[s.firstPage[o]] |= markScan
					break
				}
			}
		}
	}

	// Rebuild the page directory out of place: every existing page keeps
	// its unclustered objects (same page indices), then the clustered
	// objects pack onto fresh pages appended at the end, in cluster order.
	// The previous directory's buffers become the scratch for the next
	// reorganization.
	starts := s.pageStartScratch[:0]
	arena := s.pageObjArenaSwap[:0]
	for p := 0; p < oldPages; p++ {
		starts = append(starts, int32(len(arena)))
		for _, o := range s.ObjectsOn(disk.PageID(p)) {
			if !inCluster[o] {
				arena = append(arena, o)
			}
		}
	}
	cur := -1
	fill := s.cfg.PageSize
	newPage := func() {
		starts = append(starts, int32(len(arena)))
		cur = len(starts) - 1
		fill = 0
	}
	for _, o := range order {
		sz := s.effectiveSize(o)
		if sz > s.cfg.PageSize {
			n := (sz + s.cfg.PageSize - 1) / s.cfg.PageSize
			newPage()
			s.firstPage[o] = disk.PageID(cur)
			s.span[o] = int32(n)
			arena = append(arena, o)
			for i := 1; i < n; i++ {
				newPage()
			}
			fill = s.cfg.PageSize
			continue
		}
		if fill+sz > s.cfg.PageSize {
			newPage()
		}
		s.firstPage[o] = disk.PageID(cur)
		s.span[o] = 1
		arena = append(arena, o)
		fill += sz
	}
	s.numPages = len(starts)
	starts = append(starts, int32(len(arena))) // sentinel
	s.pageStartScratch, s.pageObjArenaSwap = s.pageStart, s.pageObjArena
	s.pageStart, s.pageObjArena = starts, arena
	s.resetRefCache()
	s.reorgs++

	// Mark the new pages and clear the object marks.
	marks = resized(marks, s.numPages)
	for _, o := range order {
		marks[s.firstPage[o]] |= markNew
		inCluster[o] = false
	}
	s.inCluster, s.orderScratch = inCluster, order

	// Read the page lists off the marks in ascending order, clearing them.
	oldList, newList, scanList := s.oldPageList[:0], s.newPageList[:0], s.scanPageList[:0]
	for p, m := range marks {
		if m == 0 {
			continue
		}
		if m&markOld != 0 {
			oldList = append(oldList, disk.PageID(p))
		}
		if m&markNew != 0 {
			newList = append(newList, disk.PageID(p))
		}
		if m&markScan != 0 {
			scanList = append(scanList, disk.PageID(p))
		}
		marks[p] = 0
	}
	s.pageMarks = marks
	s.oldPageList, s.newPageList, s.scanPageList = oldList, newList, scanList

	st.PagesRead = len(oldList)
	st.PagesWritten = len(newList)
	st.OldPageList = oldList
	st.NewPageList = newList
	st.OldPageCount = oldPages
	if scan {
		// Physical OIDs changed for every moved object: the whole (old)
		// database is scanned and every page holding a reference to a
		// moved object is rewritten.
		st.ScanReads = oldPages
		st.ScanWrites = len(scanList)
		st.ScanWritePages = scanList
	}
	return st
}

// resized returns s with n elements, reallocating only past its capacity.
// Elements past len(s) read zero: Reorganize clears every mark it sets
// before it returns, so its recycled mark arrays are zero between calls.
func resized[T any](s []T, n int) []T {
	if n <= len(s) {
		return s[:n]
	}
	return slices.Grow(s, n-len(s))[:n]
}
