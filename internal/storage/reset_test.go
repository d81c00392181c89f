package storage

import (
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/ocb"
)

// TestStoreResetMatchesNew pins Store.Reset's contract: after use (a
// reorganization scrambling the placement), resetting onto another
// database must reproduce a freshly built store's layout and lookups
// exactly — including when the new base is larger or smaller than the old
// one.
func TestStoreResetMatchesNew(t *testing.T) {
	mkdb := func(nc, no int, seed uint64) *ocb.Database {
		p := ocb.DefaultParams()
		p.NC = nc
		p.NO = no
		db, err := ocb.Generate(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	cfg := DefaultConfig()
	cfg.Overhead = 1.2

	db1 := mkdb(8, 600, 1)
	db2 := mkdb(12, 900, 2) // grows
	db3 := mkdb(5, 200, 3)  // shrinks

	s, err := New(db1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*ocb.Database{db2, db3, db1} {
		// Dirty the store with a reorganization.
		s.Reorganize([][]ocb.OID{{0, 1, 2}, {5, 6}})

		s.Reset(db)
		fresh, err := New(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumPages() != fresh.NumPages() {
			t.Fatalf("reset store has %d pages, fresh has %d", s.NumPages(), fresh.NumPages())
		}
		if s.Reorgs() != 0 {
			t.Fatalf("reset store reports %d reorgs", s.Reorgs())
		}
		for o := 0; o < db.NumObjects(); o++ {
			gf, gs := s.Pages(ocb.OID(o))
			wf, ws := fresh.Pages(ocb.OID(o))
			if gf != wf || gs != ws {
				t.Fatalf("object %d placed at (%d,%d), fresh placed at (%d,%d)", o, gf, gs, wf, ws)
			}
			if !reflect.DeepEqual(s.ObjectRefPages(ocb.OID(o)), fresh.ObjectRefPages(ocb.OID(o))) {
				t.Fatalf("object %d reference set diverged", o)
			}
		}
		for p := 0; p < fresh.NumPages(); p++ {
			page := disk.PageID(p)
			gotObjs, wantObjs := s.ObjectsOn(page), fresh.ObjectsOn(page)
			if len(gotObjs) != len(wantObjs) {
				t.Fatalf("page %d holds %v, fresh holds %v", p, gotObjs, wantObjs)
			}
			for i := range gotObjs {
				if gotObjs[i] != wantObjs[i] {
					t.Fatalf("page %d holds %v, fresh holds %v", p, gotObjs, wantObjs)
				}
			}
		}
	}
}
