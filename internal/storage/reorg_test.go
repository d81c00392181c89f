package storage

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/disk"
	"repro/internal/ocb"
)

// reorgClusters draws a cluster set from a fixed stream: clusters of 1–24
// objects, most from a small hot range so objects recur within and across
// clusters, and every fourth cluster led by a spanning object.
func reorgClusters(s *Store, n int, state uint64) [][]ocb.OID {
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	no := uint64(len(s.Database().Objects))
	var spanning []ocb.OID
	for o := range s.Database().Objects {
		if _, span := s.Pages(ocb.OID(o)); span > 1 {
			spanning = append(spanning, ocb.OID(o))
		}
	}
	clusters := make([][]ocb.OID, n)
	for i := range clusters {
		size := 1 + int(next()%24)
		var c []ocb.OID
		if i%4 == 0 && len(spanning) > 0 {
			c = append(c, spanning[next()%uint64(len(spanning))])
		}
		for len(c) < size {
			r := next()
			if r%3 == 0 {
				c = append(c, ocb.OID((r>>8)%no))
			} else {
				c = append(c, ocb.OID((r>>8)%(no/10)))
			}
		}
		clusters[i] = c
	}
	return clusters
}

func putU64(h hash.Hash64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func putPages(h hash.Hash64, ps []disk.PageID) {
	putU64(h, uint64(len(ps)))
	for _, p := range ps {
		putU64(h, uint64(p))
	}
}

// hashReorg folds every ReorgStats field into h.
func hashReorg(h hash.Hash64, st ReorgStats) {
	for _, v := range []int{st.ClustersPlaced, st.ObjectsMoved, st.PagesRead, st.PagesWritten,
		st.ScanReads, st.ScanWrites, st.OldPageCount, st.TotalIOs()} {
		putU64(h, uint64(v))
	}
	putPages(h, st.OldPageList)
	putPages(h, st.NewPageList)
	putPages(h, st.ScanWritePages)
}

// hashLayout folds the whole placement into h: every object's pages and
// every page's directory entry.
func hashLayout(h hash.Hash64, s *Store) {
	putU64(h, uint64(s.NumPages()))
	putU64(h, uint64(s.Reorgs()))
	for o := range s.Database().Objects {
		first, span := s.Pages(ocb.OID(o))
		putU64(h, uint64(first)<<8|uint64(span))
	}
	for p := disk.PageID(0); int(p) < s.NumPages(); p++ {
		objs := s.ObjectsOn(p)
		putU64(h, uint64(len(objs)))
		for _, o := range objs {
			putU64(h, uint64(o))
		}
	}
}

// reorgDigest runs two reorganizations in a row, a Reset onto a smaller
// base and a reorganization there, then a Reset back and a last
// reorganization, hashing every ReorgStats and the layout after each step.
func reorgDigest(t *testing.T, physical bool) string {
	t.Helper()
	big := testDB(t, 12, 3000, 21)
	small := testDB(t, 8, 900, 22)
	cfg := DefaultConfig()
	cfg.PageSize = 1024 // instances up to 1550 B, so some span two pages
	cfg.PhysicalOIDs = physical
	s := mustStore(t, big, cfg)
	h := fnv.New64a()
	hashLayout(h, s)
	step := func(n int, seed uint64) {
		hashReorg(h, s.Reorganize(reorgClusters(s, n, seed)))
		hashLayout(h, s)
	}
	step(60, 1)
	step(45, 2)
	s.Reset(small)
	hashLayout(h, s)
	step(30, 3)
	hashReorg(h, s.Reorganize(nil))
	s.Reset(big)
	hashLayout(h, s)
	step(80, 4)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestReorganizeDigests pins every output of Reorganize — costs, page lists
// and the resulting layout — for logical and physical OIDs, across
// back-to-back reorganizations and Resets onto other bases.
func TestReorganizeDigests(t *testing.T) {
	want := map[bool]string{false: "d75f01903b68d4cb", true: "e2e3078e91c0786d"}
	for _, physical := range []bool{false, true} {
		if got := reorgDigest(t, physical); got != want[physical] {
			t.Errorf("physical OIDs %v: digest %s, want %s", physical, got, want[physical])
		}
	}
}

// BenchmarkReorganize moves 85 clusters of 1–24 objects (Table 7's scale)
// on a warmed physical-OID store over the DSTCExperimentParams base. One
// op is one Reorganize; the Reset that restores the initial layout before
// each op is not timed. The directory buffers, marks and page lists are
// recycled, so a warmed op allocates nothing.
func BenchmarkReorganize(b *testing.B) {
	db, err := ocb.Generate(ocb.DSTCExperimentParams(), 1999)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Overhead = 1.05
	cfg.PhysicalOIDs = true
	s, err := New(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	clusters := reorgClusters(s, 85, 7)
	// Two rounds warm both halves of the double-buffered directory.
	for i := 0; i < 2; i++ {
		s.Reorganize(clusters)
		s.Reset(db)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := s.Reorganize(clusters); st.ScanWrites == 0 {
			b.Fatal("the reorganization rewrote no referencing page")
		}
		b.StopTimer()
		s.Reset(db)
		b.StartTimer()
	}
}
