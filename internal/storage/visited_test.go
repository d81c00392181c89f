package storage

import (
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
	for o := 0; o < db.NumObjects(); o++ {
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
