package storage

import (
	"sort"
	"testing"

	"repro/internal/disk"
	"repro/internal/ocb"
)

// TestObjectRefPagesIntoMatchesFresh checks that the buffer-reusing variant
// produces exactly the fresh-allocation result while recycling one scratch
// slice across every object.
func TestObjectRefPagesIntoMatchesFresh(t *testing.T) {
	db := testDB(t, 10, 500, 33)
	s := mustStore(t, db, DefaultConfig())
	var buf []disk.PageID
	for o := range db.Objects {
		oid := ocb.OID(o)
		fresh := s.ObjectRefPages(oid)
		buf = s.ObjectRefPagesInto(oid, buf[:0])
		if len(fresh) != len(buf) {
			t.Fatalf("object %d: Into returned %d pages, fresh %d", o, len(buf), len(fresh))
		}
		for i := range fresh {
			if fresh[i] != buf[i] {
				t.Fatalf("object %d: page %d differs: %d vs %d", o, i, buf[i], fresh[i])
			}
		}
	}
}

// TestReferencedPagesEpochDedup checks the sort-and-compact deduplication
// (which replaced an epoch-stamped visited slice) against a
// straightforward map-based recomputation.
func TestReferencedPagesEpochDedup(t *testing.T) {
	db := testDB(t, 10, 500, 34)
	s := mustStore(t, db, DefaultConfig())
	for p := 0; p < s.NumPages(); p++ {
		page := disk.PageID(p)
		got := s.ReferencedPages(page)

		seen := map[disk.PageID]bool{}
		var want []disk.PageID
		for _, o := range s.ObjectsOn(page) {
			for _, ref := range db.Objects[o].Refs {
				if ref == ocb.NilRef {
					continue
				}
				tp := s.PageOf(ref)
				if tp == page || seen[tp] {
					continue
				}
				seen[tp] = true
				want = append(want, tp)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("page %d: got %d referenced pages, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("page %d: entry %d = %d, want %d", p, i, got[i], want[i])
			}
		}
	}
}

// TestReferencedPagesCachedAllocFree verifies the satellite fix for the
// per-call seen map: once cached, ReferencedPages performs no allocation,
// and the first (cache-filling) call no longer allocates a map either —
// only the result slice.
func TestReferencedPagesCachedAllocFree(t *testing.T) {
	db := testDB(t, 10, 500, 35)
	s := mustStore(t, db, DefaultConfig())
	for p := 0; p < s.NumPages(); p++ {
		s.ReferencedPages(disk.PageID(p)) // warm the cache
	}
	allocs := testing.AllocsPerRun(100, func() {
		for p := 0; p < s.NumPages(); p++ {
			s.ReferencedPages(disk.PageID(p))
		}
	})
	if allocs != 0 {
		t.Fatalf("cached ReferencedPages allocated %v times per sweep", allocs)
	}
}
