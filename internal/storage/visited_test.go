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

// TestSortPageIDs exercises the allocation-free sort against the library
// sort over assorted shapes (empty, single, reversed, large scrambled).
func TestSortPageIDs(t *testing.T) {
	cases := [][]disk.PageID{
		nil,
		{5},
		{3, 1},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
	}
	big := make([]disk.PageID, 1000)
	for i := range big {
		big[i] = disk.PageID((i * 733) % 1009)
	}
	cases = append(cases, big)
	for ci, c := range cases {
		want := append([]disk.PageID(nil), c...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := append([]disk.PageID(nil), c...)
		sortPageIDs(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d: index %d = %d, want %d", ci, i, got[i], want[i])
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { sortPageIDs(big) }); n != 0 {
		t.Fatalf("sortPageIDs allocated %v times", n)
	}
}
