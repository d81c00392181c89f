package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/ocb"
)

func testDB(t *testing.T, nc, no int, seed uint64) *ocb.Database {
	t.Helper()
	p := ocb.DefaultParams()
	p.NC = nc
	p.NO = no
	db, err := ocb.Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustStore(t *testing.T, db *ocb.Database, cfg Config) *Store {
	t.Helper()
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEveryObjectPlaced(t *testing.T) {
	db := testDB(t, 10, 500, 1)
	for _, pl := range []Placement{Sequential, OptimizedSequential} {
		cfg := DefaultConfig()
		cfg.Placement = pl
		s := mustStore(t, db, cfg)
		count := 0
		for p := disk.PageID(0); int(p) < s.NumPages(); p++ {
			count += len(s.ObjectsOn(p))
		}
		if count != 500 {
			t.Errorf("%v: %d objects placed, want 500", pl, count)
		}
		for o := 0; o < db.NumObjects(); o++ {
			first, span := s.Pages(ocb.OID(o))
			if first < 0 || int(first) >= s.NumPages() || span < 1 {
				t.Fatalf("%v: object %d at page %d span %d", pl, o, first, span)
			}
		}
	}
}

func TestPageCapacityRespected(t *testing.T) {
	db := testDB(t, 10, 1000, 2)
	s := mustStore(t, db, DefaultConfig())
	for p := disk.PageID(0); int(p) < s.NumPages(); p++ {
		bytes := 0
		for _, o := range s.ObjectsOn(p) {
			if size := int(db.SizeOf(o)); size <= 4096 {
				bytes += size
			}
		}
		if bytes > 4096 {
			t.Fatalf("page %d holds %d bytes", p, bytes)
		}
	}
}

func TestOverheadInflatesPageCount(t *testing.T) {
	db := testDB(t, 10, 2000, 3)
	plain := mustStore(t, db, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Overhead = 1.4
	fat := mustStore(t, db, cfg)
	if fat.NumPages() <= plain.NumPages() {
		t.Errorf("overhead 1.4: %d pages vs %d plain", fat.NumPages(), plain.NumPages())
	}
	// Fragmentation amplifies the factor; only the direction and rough
	// magnitude are asserted.
	ratio := float64(fat.NumPages()) / float64(plain.NumPages())
	if ratio < 1.15 || ratio > 1.95 {
		t.Errorf("page ratio %.2f, want ≈ 1.4-1.7", ratio)
	}
}

func TestOptimizedSequentialGroupsClasses(t *testing.T) {
	db := testDB(t, 10, 500, 4)
	cfg := DefaultConfig()
	cfg.Placement = OptimizedSequential
	s := mustStore(t, db, cfg)
	// Walking pages in order, class numbers must be nondecreasing.
	lastClass := int32(-1)
	for p := disk.PageID(0); int(p) < s.NumPages(); p++ {
		for _, o := range s.ObjectsOn(p) {
			c := db.ClassOf(o)
			if c < lastClass {
				t.Fatalf("class order broken at page %d: class %d after %d", p, c, lastClass)
			}
			lastClass = c
		}
	}
}

func TestSpanningObjects(t *testing.T) {
	p := ocb.DefaultParams()
	p.NC = 4
	p.NO = 20
	p.BaseSize = 3000
	p.SizeMult = 3 // up to 9000 B > 4096 B pages
	db, err := ocb.Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := mustStore(t, db, DefaultConfig())
	foundSpan := false
	for o := 0; o < db.NumObjects(); o++ {
		first, span := s.Pages(ocb.OID(o))
		size := db.SizeOf(ocb.OID(o))
		want := (int(size) + 4095) / 4096
		if span != want {
			t.Fatalf("object %d size %d: span %d, want %d", o, size, span, want)
		}
		if span > 1 {
			foundSpan = true
			// Tail pages must hold no first-placed objects.
			for i := 1; i < span; i++ {
				if len(s.ObjectsOn(first+disk.PageID(i))) != 0 {
					t.Fatalf("tail page %d of object %d not empty", first+disk.PageID(i), o)
				}
			}
		}
	}
	if !foundSpan {
		t.Fatal("test generated no spanning object")
	}
}

func TestValidateConfig(t *testing.T) {
	bad := []Config{
		{PageSize: 10, Overhead: 1},
		{PageSize: 4096, Overhead: 0.5},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestPlacementString(t *testing.T) {
	if Sequential.String() != "Sequential" ||
		OptimizedSequential.String() != "Optimized Sequential" ||
		Placement(7).String() != "Placement(7)" {
		t.Error("Placement.String wrong")
	}
}

// --- reorganization ---

func TestReorganizeMakesClustersContiguous(t *testing.T) {
	db := testDB(t, 10, 500, 7)
	s := mustStore(t, db, DefaultConfig())
	clusters := [][]ocb.OID{
		{10, 250, 499, 3},
		{100, 200},
	}
	oldPages := s.NumPages()
	st := s.Reorganize(clusters)
	if st.ClustersPlaced != 2 {
		t.Fatalf("ClustersPlaced = %d", st.ClustersPlaced)
	}
	// Cluster objects must occupy fresh pages past the old region, in
	// cluster order.
	prev := disk.PageID(oldPages) - 1
	for _, cl := range clusters {
		for _, o := range cl {
			p := s.PageOf(o)
			if p < disk.PageID(oldPages) {
				t.Fatalf("cluster object %d still in old region (page %d)", o, p)
			}
			if p < prev {
				t.Fatalf("cluster object %d on page %d before previous %d", o, p, prev)
			}
			prev = p
		}
	}
	// The first cluster starts on the first fresh page.
	if s.PageOf(10) != disk.PageID(oldPages) {
		t.Errorf("first cluster starts on page %d, want %d", s.PageOf(10), oldPages)
	}
	// Unclustered objects must not move.
	if st.ObjectsMoved != 6 {
		t.Errorf("ObjectsMoved = %d, want 6 (only the clustered ones)", st.ObjectsMoved)
	}
	if s.Reorgs() != 1 {
		t.Errorf("Reorgs = %d", s.Reorgs())
	}
}

func TestReorganizeKeepsAllObjects(t *testing.T) {
	db := testDB(t, 10, 500, 8)
	s := mustStore(t, db, DefaultConfig())
	s.Reorganize([][]ocb.OID{{1, 2, 3}, {400, 401}})
	count := 0
	for p := disk.PageID(0); int(p) < s.NumPages(); p++ {
		count += len(s.ObjectsOn(p))
	}
	if count != 500 {
		t.Fatalf("objects after reorg = %d, want 500", count)
	}
}

func TestReorganizeDedupsAcrossClusters(t *testing.T) {
	db := testDB(t, 10, 500, 9)
	s := mustStore(t, db, DefaultConfig())
	st := s.Reorganize([][]ocb.OID{{5, 6}, {6, 7}, {6}})
	if st.ClustersPlaced != 2 {
		t.Fatalf("ClustersPlaced = %d, want 2 (third cluster fully duplicate)", st.ClustersPlaced)
	}
	count := 0
	for p := disk.PageID(0); int(p) < s.NumPages(); p++ {
		for _, o := range s.ObjectsOn(p) {
			if o == 6 {
				count++
			}
		}
	}
	if count != 1 {
		t.Fatalf("object 6 placed %d times", count)
	}
}

func TestReorganizeCostLogicalVsPhysical(t *testing.T) {
	db := testDB(t, 20, 2000, 10)
	logical := mustStore(t, db, DefaultConfig())
	cfgPhys := DefaultConfig()
	cfgPhys.PhysicalOIDs = true
	physical := mustStore(t, db, cfgPhys)

	clusters := [][]ocb.OID{}
	for c := 0; c < 10; c++ {
		var cl []ocb.OID
		for i := 0; i < 10; i++ {
			cl = append(cl, ocb.OID(c*100+i))
		}
		clusters = append(clusters, cl)
	}
	stL := logical.Reorganize(clusters)
	stP := physical.Reorganize(clusters)
	if stL.ScanReads != 0 || stL.ScanWrites != 0 {
		t.Errorf("logical store paid a scan: %+v", stL)
	}
	if stP.ScanReads != logical.NumPages() && stP.ScanReads == 0 {
		t.Errorf("physical store scan reads = %d", stP.ScanReads)
	}
	if stP.TotalIOs() <= stL.TotalIOs() {
		t.Errorf("physical overhead %d not larger than logical %d — the paper's Table 6 effect",
			stP.TotalIOs(), stL.TotalIOs())
	}
	// The factor should be substantial (paper measured ≈ 36×; at this
	// scale anything > 2× demonstrates the mechanism).
	if float64(stP.TotalIOs()) < 2*float64(stL.TotalIOs()) {
		t.Errorf("physical/logical overhead ratio too small: %d vs %d", stP.TotalIOs(), stL.TotalIOs())
	}
}

func TestReorganizeEmptyClusterList(t *testing.T) {
	db := testDB(t, 10, 500, 11)
	s := mustStore(t, db, DefaultConfig())
	before := s.PageOf(42)
	st := s.Reorganize(nil)
	if st.TotalIOs() != 0 || s.PageOf(42) != before || s.Reorgs() != 0 {
		t.Error("empty reorganization must be free and change nothing")
	}
}

// Property: reorganization with arbitrary clusters preserves the object
// count and leaves every object on a valid page.
func TestPropertyReorganizePreservesPlacement(t *testing.T) {
	db := testDB(t, 10, 300, 13)
	f := func(picks []uint16) bool {
		s := mustStore(t, db, DefaultConfig())
		var cl []ocb.OID
		for _, p := range picks {
			cl = append(cl, ocb.OID(int(p)%300))
		}
		var clusters [][]ocb.OID
		if len(cl) > 0 {
			mid := len(cl) / 2
			clusters = [][]ocb.OID{cl[:mid], cl[mid:]}
		}
		s.Reorganize(clusters)
		count := 0
		for p := disk.PageID(0); int(p) < s.NumPages(); p++ {
			for _, o := range s.ObjectsOn(p) {
				if s.PageOf(o) != p {
					return false
				}
				count++
			}
		}
		return count == 300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperBaseSizes(t *testing.T) {
	// The Texas base (overhead 1.05) should be ≈ 21 MB and the O₂ base
	// (overhead 1.33) ≈ 28 MB, per §4.3/§4.4 of the paper. These factors
	// are the ones internal/systems uses.
	p := ocb.DefaultParams()
	db, err := ocb.Generate(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	tex := DefaultConfig()
	tex.Overhead = 1.05
	sTex := mustStore(t, db, tex)
	o2 := DefaultConfig()
	o2.Overhead = 1.33
	sO2 := mustStore(t, db, o2)
	texMB := float64(sTex.TotalBytes()) / 1e6
	o2MB := float64(sO2.TotalBytes()) / 1e6
	if texMB < 18 || texMB > 24 {
		t.Errorf("Texas base = %.1f MB, want ≈ 21", texMB)
	}
	if o2MB < 25 || o2MB > 31 {
		t.Errorf("O2 base = %.1f MB, want ≈ 28", o2MB)
	}
}
