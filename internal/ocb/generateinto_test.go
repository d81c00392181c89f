package ocb

import (
	"reflect"
	"slices"
	"testing"
)

// equalDatabases compares the observable content of two databases (the
// exported object-graph fields and every object's class, size and
// references; generation arenas are implementation detail). HotRoots is
// compared element-wise so nil and empty are equivalent.
func equalDatabases(a, b *Database) bool {
	if a.Params != b.Params {
		return false
	}
	if !reflect.DeepEqual(a.Classes, b.Classes) {
		return false
	}
	if a.NumObjects() != b.NumObjects() || len(a.objClass) != len(b.objClass) {
		return false
	}
	for i := 0; i < a.NumObjects(); i++ {
		o := OID(i)
		if a.ClassOf(o) != b.ClassOf(o) || a.SizeOf(o) != b.SizeOf(o) || !slices.Equal(a.RefsOf(o), b.RefsOf(o)) {
			return false
		}
	}
	if !reflect.DeepEqual(a.ByClass, b.ByClass) {
		return false
	}
	if len(a.HotRoots) != len(b.HotRoots) {
		return false
	}
	for i := range a.HotRoots {
		if a.HotRoots[i] != b.HotRoots[i] {
			return false
		}
	}
	return true
}

// generateIntoCases covers the generation paths: the defaults, the DSTC
// profile (hot roots, type-zero bias), and the Zipf distributions.
func generateIntoCases() []Params {
	small := func(p Params) Params {
		p.NC = 8
		p.NO = 400
		return p
	}
	defaults := small(DefaultParams())
	dstc := small(DSTCExperimentParams())
	dstc.HotRootCount = 20
	dstc.ObjectLocality = dstc.NO
	zipf := defaults
	zipf.ClassRefDist = Zipf
	zipf.ObjClassDist = Zipf
	zipf.RootDist = Zipf
	return []Params{defaults, dstc, zipf}
}

// TestGenerateIntoMatchesGenerate is the bit-identity contract of the
// recycled generation path: rebuilding into a database that previously
// held a different base (different params, sizes, and seed, so every arena
// is dirty) must produce exactly what a fresh Generate produces.
func TestGenerateIntoMatchesGenerate(t *testing.T) {
	for ci, p := range generateIntoCases() {
		want, err := Generate(p, 42)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		db := new(Database)
		for _, prev := range generateIntoCases() { // dirty all arenas, every shape
			if err := GenerateInto(db, prev, 7); err != nil {
				t.Fatalf("case %d (pre-dirty): %v", ci, err)
			}
		}
		if err := GenerateInto(db, p, 42); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if !equalDatabases(want, db) {
			t.Errorf("case %d: warm GenerateInto diverged from fresh Generate", ci)
		}
		// Shrinking rebuild: regenerate something smaller into the same db.
		smaller := p
		smaller.NC = 4
		smaller.NO = 150
		if smaller.HotRootCount > smaller.NO {
			smaller.HotRootCount = smaller.NO / 2
		}
		if smaller.ObjectLocality > smaller.NO {
			smaller.ObjectLocality = smaller.NO
		}
		wantSmall, err := Generate(smaller, 9)
		if err != nil {
			t.Fatalf("case %d (small): %v", ci, err)
		}
		if err := GenerateInto(db, smaller, 9); err != nil {
			t.Fatalf("case %d (small): %v", ci, err)
		}
		if !equalDatabases(wantSmall, db) {
			t.Errorf("case %d: shrinking GenerateInto diverged from fresh Generate", ci)
		}
	}
}

// TestGenerateIntoWarmAllocs pins the satellite target: a warm rebuild of
// an identically-shaped base performs (near-)zero allocations.
func TestGenerateIntoWarmAllocs(t *testing.T) {
	p := DefaultParams()
	p.NC = 20
	p.NO = 2000
	db := new(Database)
	if err := GenerateInto(db, p, 1); err != nil {
		t.Fatal(err)
	}
	seed := uint64(2)
	allocs := testing.AllocsPerRun(5, func() {
		if err := GenerateInto(db, p, seed); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	if allocs > 0 {
		t.Errorf("warm GenerateInto allocated %v times per rebuild, want 0", allocs)
	}
}

// TestWorkloadGenerateIntoMatches pins the reusable workload path: a
// recycled Workload refilled after Release must draw the identical stream
// a fresh GenerateWorkload draws, for both the mixed and the hierarchy
// generators.
func TestWorkloadGenerateIntoMatches(t *testing.T) {
	p := DefaultParams()
	p.NC = 8
	p.NO = 500
	p.ColdN = 5
	p.HotN = 40
	db, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2 := DSTCExperimentParams()
	p2.NC = 6
	p2.NO = 300
	p2.HotRootCount = 10
	p2.ObjectLocality = p2.NO
	db2, err := Generate(p2, 4)
	if err != nil {
		t.Fatal(err)
	}

	equalTxs := func(a, b []Transaction) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Type != b[i].Type || a[i].Root != b[i].Root {
				return false
			}
			if len(a[i].Ops) != len(b[i].Ops) {
				return false
			}
			for j := range a[i].Ops {
				if a[i].Ops[j] != b[i].Ops[j] {
					return false
				}
			}
		}
		return true
	}

	w := new(Workload)
	w.GenerateInto(db2, 77) // dirty the buffers on a different base
	w.Release()
	w.GenerateInto(db, 11)
	fresh := GenerateWorkload(db, 11)
	if !equalTxs(w.Cold, fresh.Cold) || !equalTxs(w.Hot, fresh.Hot) {
		t.Error("recycled Workload.GenerateInto diverged from fresh GenerateWorkload")
	}
	w.Release()

	w.GenerateHierarchyInto(db2, 13, 30, 3)
	freshH := GenerateHierarchyWorkload(db2, 13, 30, 3)
	if len(w.Cold) != 0 {
		t.Error("hierarchy workload left cold transactions")
	}
	if !equalTxs(w.Hot, freshH) {
		t.Error("recycled GenerateHierarchyInto diverged from GenerateHierarchyWorkload")
	}
	w.Release()

	// Zipf-distributed roots: the root sampler is cached across Reinit, so
	// a second fill over the same base must still match a fresh draw.
	pz := p
	pz.RootDist = Zipf
	dbz, err := Generate(pz, 5)
	if err != nil {
		t.Fatal(err)
	}
	w.GenerateInto(dbz, 21)
	w.Release()
	w.GenerateInto(dbz, 23)
	freshZ := GenerateWorkload(dbz, 23)
	if !equalTxs(w.Cold, freshZ.Cold) || !equalTxs(w.Hot, freshZ.Hot) {
		t.Error("recycled Zipf-rooted workload diverged from fresh GenerateWorkload")
	}
}

// TestTraversalMarksClearAfterGenerate pins the mark-bit contract: each
// traversal clears exactly the marks it set, so after a workload fill —
// mixed or hierarchy-only, eager or streaming base — every mark is clear
// and the next traversal starts from an empty visited set.
func TestTraversalMarksClearAfterGenerate(t *testing.T) {
	for _, layout := range []Layout{LayoutEager, LayoutStream} {
		p := DefaultParams()
		p.NC = 8
		p.NO = 1000
		p.ColdN = 5
		p.HotN = 60
		p.Layout = layout
		db, err := Generate(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		w := new(Workload)
		check := func(what string) {
			t.Helper()
			if len(w.gen.marks) != (db.NumObjects()+63)/64 {
				t.Fatalf("%v %s: %d mark words for %d objects", layout, what, len(w.gen.marks), db.NumObjects())
			}
			for i, word := range w.gen.marks {
				if word != 0 {
					t.Fatalf("%v %s: mark word %d = %#x left set", layout, what, i, word)
				}
			}
		}
		w.GenerateInto(db, 8)
		check("GenerateInto")
		w.Release()
		w.GenerateHierarchyInto(db, 9, 40, 4)
		check("GenerateHierarchyInto")
	}
}
