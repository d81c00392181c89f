package storage

import (
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

// Reorganize moves each cluster's objects onto fresh, contiguous pages
// appended after the existing ones, in the given cluster order; objects not
// in any cluster stay exactly where they are (the vacated space is left as
// holes, as DSTC's copy-to-new-region reorganization does). Objects listed
// in several clusters keep their first occurrence. It returns the physical
// cost of the move, including the reference-fixup scan when the store uses
// physical OIDs.
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

	oldFirst := make([]disk.PageID, len(s.firstPage))
	copy(oldFirst, s.firstPage)
	oldPages := s.numPages

	inCluster := make([]bool, len(s.db.Objects))
	order := make([]ocb.OID, 0, 256)
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

	// Cost accounting: pages read = distinct old pages of moved objects;
	// pages written = distinct new pages of moved objects.
	oldRead := map[disk.PageID]bool{}
	newWritten := map[disk.PageID]bool{}
	moved := make([]bool, len(s.db.Objects))
	for o := range s.db.Objects {
		if s.firstPage[o] != oldFirst[o] {
			st.ObjectsMoved++
			moved[o] = true
			oldRead[oldFirst[o]] = true
			newWritten[s.firstPage[o]] = true
		}
	}
	st.PagesRead = len(oldRead)
	st.PagesWritten = len(newWritten)
	st.OldPageList = sortedKeys(oldRead)
	st.NewPageList = sortedKeys(newWritten)
	st.OldPageCount = oldPages

	if s.cfg.PhysicalOIDs && st.ObjectsMoved > 0 {
		// Physical OIDs changed for every moved object: scan the whole
		// (old) database and rewrite every page holding a reference to a
		// moved object.
		st.ScanReads = oldPages
		dirty := map[disk.PageID]bool{}
		for o := range s.db.Objects {
			for _, t := range s.db.Objects[o].Refs {
				if t != ocb.NilRef && moved[t] {
					dirty[oldFirst[ocb.OID(o)]] = true
					break
				}
			}
		}
		st.ScanWrites = len(dirty)
		st.ScanWritePages = sortedKeys(dirty)
	}
	return st
}

func sortedKeys(set map[disk.PageID]bool) []disk.PageID {
	out := make([]disk.PageID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sortPageIDs(out)
	return out
}
