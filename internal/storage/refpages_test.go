package storage

import (
	"testing"

	"repro/internal/ocb"
)

func TestObjectRefPages(t *testing.T) {
	db := testDB(t, 10, 500, 21)
	s := mustStore(t, db, DefaultConfig())
	for o := 0; o < db.NumObjects(); o++ {
		oid := ocb.OID(o)
		pages := s.ObjectRefPages(oid)
		own := s.PageOf(oid)
		seen := map[int64]bool{}
		for i, p := range pages {
			if p == own {
				t.Fatalf("object %d reservation set contains its own page", o)
			}
			if p < 0 || int(p) >= s.NumPages() {
				t.Fatalf("object %d references invalid page %d", o, p)
			}
			if seen[int64(p)] {
				t.Fatalf("object %d reservation set has duplicates", o)
			}
			if i > 0 && pages[i-1] > p {
				t.Fatalf("object %d reservation set unsorted", o)
			}
			seen[int64(p)] = true
		}
		// Every referenced page must actually hold a referenced object.
		for _, ref := range db.RefsOf(ocb.OID(o)) {
			if ref == ocb.NilRef {
				continue
			}
			rp := s.PageOf(ref)
			if rp == own {
				continue
			}
			found := false
			for _, p := range pages {
				if p == rp {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("object %d: referenced page %d missing from set", o, rp)
			}
		}
	}
}

func TestObjectRefPagesFollowReorganization(t *testing.T) {
	db := testDB(t, 10, 500, 22)
	s := mustStore(t, db, DefaultConfig())
	target := ocb.OID(0)
	// Find an object referencing target, cluster target away, and check
	// the referrer's set tracks the move.
	var referrer ocb.OID = -1
	for o := 0; o < db.NumObjects(); o++ {
		for _, ref := range db.RefsOf(ocb.OID(o)) {
			if ref == target && ocb.OID(o) != target {
				referrer = ocb.OID(o)
				break
			}
		}
		if referrer >= 0 {
			break
		}
	}
	if referrer < 0 {
		t.Skip("no referrer to object 0 in this base")
	}
	s.Reorganize([][]ocb.OID{{target, 100, 200}})
	newPage := s.PageOf(target)
	found := false
	for _, p := range s.ObjectRefPages(referrer) {
		if p == newPage {
			found = true
		}
	}
	if !found && s.PageOf(referrer) != newPage {
		t.Fatalf("referrer %d set does not track moved target (page %d)", referrer, newPage)
	}
}
