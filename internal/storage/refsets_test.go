package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/ocb"
)

// wantRefPages returns every object's reservation set on a fresh store
// over db with the given clusterings applied in turn, each set computed on
// the store's first call for it.
func wantRefPages(t *testing.T, db *ocb.Database, cfg Config, reorgs ...[][]ocb.OID) [][]disk.PageID {
	t.Helper()
	s := mustStore(t, db, cfg)
	for _, clusters := range reorgs {
		s.Reorganize(clusters)
	}
	want := make([][]disk.PageID, db.NumObjects())
	for o := range want {
		want[o] = s.ObjectRefPagesInto(ocb.OID(o), nil)
	}
	return want
}

// fillRefPages asks s for the sets of a shuffled half of the objects,
// then for a shuffled third again, so some are stored once and some are
// served from the stored copy.
func fillRefPages(s *Store, r *rand.Rand) {
	n := s.Database().NumObjects()
	perm := r.Perm(n)
	var buf []disk.PageID
	for _, o := range perm[:n/2] {
		buf = s.ObjectRefPagesInto(ocb.OID(o), buf[:0])
	}
	r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for _, o := range perm[:n/3] {
		buf = s.ObjectRefPagesInto(ocb.OID(o), buf[:0])
	}
}

// checkRefPages asks s for every object's set, in shuffled order and
// twice, each time after a marker page it must append to, and compares
// each with want.
func checkRefPages(t *testing.T, s *Store, want [][]disk.PageID, r *rand.Rand, when string) {
	t.Helper()
	const marker = disk.PageID(-7)
	buf := []disk.PageID{marker}
	for pass := 0; pass < 2; pass++ {
		for _, o := range r.Perm(len(want)) {
			buf = s.ObjectRefPagesInto(ocb.OID(o), buf[:1])
			if buf[0] != marker || !slices.Equal(buf[1:], want[o]) {
				t.Fatalf("%s, pass %d: object %d's set is %v after the marker %v, a fresh store's is %v",
					when, pass, o, buf[1:], buf[0], want[o])
			}
		}
	}
}

// TestRefPagesMatchFreshStore pins the stored reservation sets to the
// placement they were computed under: on a store whose sets were filled,
// every object's set must equal a fresh store's after a Reset to another
// base of the same size, after a Reset to a base of another size, and
// after each of several reorganizations. It covers the eager v1 and v2
// layouts, both placements and both OID kinds.
func TestRefPagesMatchFreshStore(t *testing.T) {
	gen := func(layout ocb.Layout, no int, seed uint64) *ocb.Database {
		p := ocb.DefaultParams()
		p.NC, p.NO, p.Layout = 12, no, layout
		db, err := ocb.Generate(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, layout := range []ocb.Layout{ocb.LayoutEager, ocb.LayoutEagerV2} {
		for _, pl := range []Placement{Sequential, OptimizedSequential} {
			for _, physical := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v/physical=%v", layout, pl, physical)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Placement = pl
					cfg.PhysicalOIDs = physical
					cfg.Overhead = 1.3
					r := rand.New(rand.NewSource(int64(layout)<<8 | int64(pl)))
					first, same, other := gen(layout, 1200, 1), gen(layout, 1200, 2), gen(layout, 700, 3)

					s := mustStore(t, first, cfg)
					fillRefPages(s, r)
					s.Reset(same)
					checkRefPages(t, s, wantRefPages(t, same, cfg), r, "after a Reset to a base of the same size")

					fillRefPages(s, r)
					s.Reset(other)
					checkRefPages(t, s, wantRefPages(t, other, cfg), r, "after a Reset to a smaller base")

					// Each reorganization moves objects whose sets, and
					// whose referrers' sets, were stored before it.
					var reorgs [][][]ocb.OID
					for k := 0; k < 3; k++ {
						var clusters [][]ocb.OID
						for c := 0; c < 4; c++ {
							cl := make([]ocb.OID, 2+r.Intn(12))
							for i := range cl {
								cl[i] = ocb.OID(r.Intn(other.NumObjects()))
							}
							clusters = append(clusters, cl)
						}
						reorgs = append(reorgs, clusters)
						fillRefPages(s, r)
						s.Reorganize(clusters)
						checkRefPages(t, s, wantRefPages(t, other, cfg, reorgs...), r,
							fmt.Sprintf("after reorganization %d", k+1))
					}
				})
			}
		}
	}
}

// TestRefSetsBlocks stores sets of every length from empty to one past a
// block's capacity: each must come back intact whether it opened a new
// block or not, except the one too long for a block, which is not stored.
// A clear drops every set and the next ones reuse the retired blocks.
func TestRefSetsBlocks(t *testing.T) {
	var r refSets
	lens := []int{0, 1, 5, refBlockLen / 2, refBlockLen/2 - 1, refBlockLen - 1, 3, refBlockLen, 0, 2}
	sets := make([][]disk.PageID, len(lens))
	for round := 0; round < 2; round++ {
		for o, n := range lens {
			sets[o] = make([]disk.PageID, n)
			for i := range sets[o] {
				sets[o][i] = disk.PageID(round*1000000 + o*refBlockLen + i)
			}
			r.put(ocb.OID(o), sets[o], len(lens))
		}
		for o, n := range lens {
			got, ok := r.get(ocb.OID(o))
			if stored := 1+n <= refBlockLen; ok != stored {
				t.Fatalf("round %d: set %d of %d pages stored=%v, want %v", round, o, n, ok, stored)
			}
			if !ok {
				continue
			}
			if len(got) != n {
				t.Fatalf("round %d: set %d has %d pages, want %d", round, o, len(got), n)
			}
			for i, p := range got {
				if disk.PageID(p) != sets[o][i] {
					t.Fatalf("round %d: set %d page %d is %d, want %d", round, o, i, p, sets[o][i])
				}
			}
		}
		blocks := len(r.blocks)
		r.clear()
		for o := range lens {
			if _, ok := r.get(ocb.OID(o)); ok {
				t.Fatalf("round %d: set %d survived clear", round, o)
			}
		}
		if round == 1 && blocks != 4 {
			t.Errorf("round %d used %d blocks, want the first round's 4 reused", round, blocks)
		}
	}
}
