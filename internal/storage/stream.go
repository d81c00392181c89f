package storage

import (
	"math"

	"repro/internal/disk"
	"repro/internal/ocb"
)

// Streaming placement: a streaming object base (ocb.LayoutStream) has
// class-contiguous OIDs and one instance size per class, so the first-fit
// layout that place() computes object by object is fully determined by
// O(classes) arithmetic. Each class gets a classExtent — where its head
// objects share the predecessor's last page, where its fresh pages start,
// and how many objects pack per page — replacing the O(objects) firstPage/
// span tables and the O(objects) page directory. PageOf and ObjectsOn are
// answered by binary search over the extents.
//
// Equivalence with the eager layout is exact: under class-contiguous OIDs
// the Sequential and OptimizedSequential orders coincide (both are OID
// order), and the head/perPage arithmetic below replicates place()'s
// "fill+sz > PageSize ⇒ new page" rule, so every object lands on the same
// page a materialized store would put it on (pinned by stream tests).

// classExtent is the arithmetic placement of one class.
type classExtent struct {
	startOID ocb.OID // first OID of the class
	n        int32   // instance count
	sz       int32   // effective (overhead-inflated) size per instance

	headPage int32 // page shared with the predecessor, -1 if none
	headN    int32 // objects on headPage
	firstPg  int32 // first fresh page, -1 when headN == n
	perPage  int32 // objects per fresh page (1 for spanning objects)
	span     int32 // pages per object (> 1 only when sz > PageSize)

	firstUsed int32 // first page holding an object of this class
	lastUsed  int32 // last page used by this class
}

// effSize inflates a logical size by the configured storage overhead; it
// is the size-only body of effectiveSize so the extent computation applies
// the identical rounding per class.
func (s *Store) effSize(size int) int {
	e := int(math.Ceil(float64(size) * s.cfg.Overhead))
	if e < 1 {
		e = 1
	}
	return e
}

// placeStream computes the per-class extents for a streaming base in
// O(classes), replicating place()'s first-fit state machine.
func (s *Store) placeStream() {
	db := s.db
	nc := len(db.Classes)
	if cap(s.ext) >= nc {
		s.ext = s.ext[:nc]
	} else {
		s.ext = make([]classExtent, nc)
	}
	pages := 0 // pages allocated so far
	fill := 0  // bytes used on the last page (undefined while pages == 0)
	for c := 0; c < nc; c++ {
		e := &s.ext[c]
		lo, hi, _ := db.ClassRange(c)
		n := int(hi - lo)
		sz := s.effSize(db.Classes[c].InstanceSize)
		*e = classExtent{startOID: lo, n: int32(n), sz: int32(sz), headPage: -1, firstPg: -1}
		if n == 0 {
			// Cannot happen (every class has ≥ 1 instance) but keep the
			// extents monotone for the ObjectsOn binary search.
			e.firstUsed, e.lastUsed = int32(pages-1), int32(pages-1)
			continue
		}
		if sz > s.cfg.PageSize {
			// Spanning objects: place() starts a fresh page per object
			// unconditionally and leaves the last page "full".
			span := (sz + s.cfg.PageSize - 1) / s.cfg.PageSize
			e.span = int32(span)
			e.perPage = 1
			e.firstPg = int32(pages)
			pages += n * span
			fill = s.cfg.PageSize
			e.firstUsed, e.lastUsed = e.firstPg, int32(pages-1)
			continue
		}
		e.span = 1
		headN := 0
		if pages > 0 && fill+sz <= s.cfg.PageSize {
			headN = (s.cfg.PageSize - fill) / sz
			if headN > n {
				headN = n
			}
			e.headPage = int32(pages - 1)
		}
		e.headN = int32(headN)
		perPage := s.cfg.PageSize / sz
		e.perPage = int32(perPage)
		m := n - headN
		if m == 0 {
			fill += headN * sz
			e.firstUsed, e.lastUsed = e.headPage, e.headPage
			continue
		}
		e.firstPg = int32(pages)
		full := (m + perPage - 1) / perPage
		pages += full
		rem := m % perPage
		if rem == 0 {
			rem = perPage
		}
		fill = rem * sz
		e.lastUsed = int32(pages - 1)
		if headN > 0 {
			e.firstUsed = e.headPage
		} else {
			e.firstUsed = e.firstPg
		}
	}
	s.numPages = pages
	s.resetRefCache()
}

// streamPages is Pages() over the extents.
func (s *Store) streamPages(o ocb.OID) (disk.PageID, int) {
	e := &s.ext[s.db.ClassOf(o)]
	r := int32(o - e.startOID)
	if e.span > 1 {
		return disk.PageID(e.firstPg + r*e.span), int(e.span)
	}
	if r < e.headN {
		return disk.PageID(e.headPage), 1
	}
	return disk.PageID(e.firstPg + (r-e.headN)/e.perPage), 1
}

// streamObjectsOn is ObjectsOn() over the extents: every class whose page
// interval covers p contributes its objects on p, in class (= OID) order —
// the same order the eager page directory records. The result lives in a
// reusable scratch and is valid until the next ObjectsOn call.
func (s *Store) streamObjectsOn(p disk.PageID) []ocb.OID {
	if p < 0 || int(p) >= s.numPages {
		return nil
	}
	out := s.objsScratch[:0]
	pg := int32(p)
	// First extent whose last used page reaches p.
	lo, hi := 0, len(s.ext)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ext[mid].lastUsed < pg {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for c := lo; c < len(s.ext) && s.ext[c].firstUsed <= pg; c++ {
		e := &s.ext[c]
		if e.n == 0 {
			continue
		}
		if e.span > 1 {
			d := pg - e.firstPg
			if d >= 0 && d < e.n*e.span && d%e.span == 0 {
				out = append(out, e.startOID+ocb.OID(d/e.span))
			}
			continue
		}
		if e.headN > 0 && pg == e.headPage {
			for r := int32(0); r < e.headN; r++ {
				out = append(out, e.startOID+ocb.OID(r))
			}
		}
		if e.firstPg >= 0 && pg >= e.firstPg {
			r0 := e.headN + (pg-e.firstPg)*e.perPage
			cnt := e.perPage
			if r0+cnt > e.n {
				cnt = e.n - r0
			}
			for r := int32(0); r < cnt; r++ {
				out = append(out, e.startOID+ocb.OID(r0+r))
			}
		}
	}
	s.objsScratch = out
	return out
}

// StreamResident reports whether the store is in streaming (arithmetic
// extent) mode rather than holding materialized per-object tables.
func (s *Store) StreamResident() bool { return s.stream }
