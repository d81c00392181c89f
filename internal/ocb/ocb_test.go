package ocb

import (
	"math"
	"testing"
	"testing/quick"
)

func mustGenerate(t *testing.T, p Params, seed uint64) *Database {
	t.Helper()
	db, err := Generate(p, seed)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return db
}

func smallParams() Params {
	p := DefaultParams()
	p.NC = 10
	p.NO = 500
	p.HotN = 50
	return p
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := map[string]func(*Params){
		"NC=0":          func(p *Params) { p.NC = 0 },
		"NO<NC":         func(p *Params) { p.NO = 5; p.NC = 10 },
		"MaxNRef=0":     func(p *Params) { p.MaxNRef = 0 },
		"BaseSize=0":    func(p *Params) { p.BaseSize = 0 },
		"NRefT=0":       func(p *Params) { p.NRefT = 0 },
		"HotN=0":        func(p *Params) { p.HotN = 0 },
		"probs≠1":       func(p *Params) { p.PSet = 0.5 },
		"WriteProb>1":   func(p *Params) { p.WriteProb = 1.5 },
		"neg depth":     func(p *Params) { p.SetDepth = -1 },
		"zero locality": func(p *Params) { p.ClassLocality = 0 },
		// NaN fails every comparison, so each float check must reject it
		// explicitly rather than through x < 0.
		"WriteProb NaN":    func(p *Params) { p.WriteProb = math.NaN() },
		"TypeZeroBias NaN": func(p *Params) { p.TypeZeroBias = math.NaN() },
		"PSet NaN":         func(p *Params) { p.PSet = math.NaN() },
		"PStoch NaN":       func(p *Params) { p.PStoch = math.NaN() },
		"ZipfTheta NaN":    func(p *Params) { p.ZipfTheta = math.NaN() },
		"ZipfTheta Inf":    func(p *Params) { p.ZipfTheta = math.Inf(1) },
		"ZipfTheta<0":      func(p *Params) { p.ZipfTheta = -1 },
	}
	for name, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := smallParams()
	a := mustGenerate(t, p, 42)
	b := mustGenerate(t, p, 42)
	if a.TotalBytes() != b.TotalBytes() {
		t.Fatal("same seed, different sizes")
	}
	for i := 0; i < a.NumObjects(); i++ {
		o := OID(i)
		if a.ClassOf(o) != b.ClassOf(o) {
			t.Fatalf("object %d class differs", i)
		}
		ar, br := a.RefsOf(o), b.RefsOf(o)
		for r := range ar {
			if ar[r] != br[r] {
				t.Fatalf("object %d ref %d differs", i, r)
			}
		}
	}
	c := mustGenerate(t, p, 43)
	if a.TotalBytes() == c.TotalBytes() && a.AvgRefs() == c.AvgRefs() {
		t.Error("different seeds produced identical bases (suspicious)")
	}
}

func TestSchemaInvariants(t *testing.T) {
	p := DefaultParams()
	p.NO = 2000
	db := mustGenerate(t, p, 7)
	if len(db.Classes) != p.NC {
		t.Fatalf("classes = %d", len(db.Classes))
	}
	for _, c := range db.Classes {
		if len(c.Refs) < 1 || len(c.Refs) > p.MaxNRef {
			t.Errorf("class %d has %d refs, want [1,%d]", c.ID, len(c.Refs), p.MaxNRef)
		}
		if c.InstanceSize < p.BaseSize || c.InstanceSize > p.BaseSize*p.SizeMult {
			t.Errorf("class %d size %d outside range", c.ID, c.InstanceSize)
		}
		for _, r := range c.Refs {
			if r.Target < 0 || r.Target >= p.NC {
				t.Errorf("class %d ref target %d out of range", c.ID, r.Target)
			}
			if int(r.Type) >= p.NRefT {
				t.Errorf("class %d ref type %d out of range", c.ID, r.Type)
			}
		}
	}
}

func TestObjectInvariants(t *testing.T) {
	p := DefaultParams()
	p.NO = 2000
	db := mustGenerate(t, p, 7)
	if db.NumObjects() != p.NO || len(db.objClass) != p.NO || len(db.refStart) != p.NO+1 {
		t.Fatalf("objects = %d, class table %d, reference offsets %d", db.NumObjects(), len(db.objClass), len(db.refStart))
	}
	for i := 0; i < db.NumObjects(); i++ {
		o := OID(i)
		cls := db.Classes[db.ClassOf(o)]
		if size := db.SizeOf(o); int(size) != cls.InstanceSize {
			t.Fatalf("object %d size %d ≠ class size %d", o, size, cls.InstanceSize)
		}
		refs := db.RefsOf(o)
		if len(refs) != len(cls.Refs) {
			t.Fatalf("object %d has %d refs, class declares %d", o, len(refs), len(cls.Refs))
		}
		for r, target := range refs {
			if target == NilRef {
				continue
			}
			if target < 0 || int(target) >= p.NO {
				t.Fatalf("object %d ref %d → %d out of range", o, r, target)
			}
			if int(db.ClassOf(target)) != cls.Refs[r].Target {
				t.Fatalf("object %d ref %d targets class %d, declared %d",
					o, r, db.ClassOf(target), cls.Refs[r].Target)
			}
		}
	}
	// Every class must have at least one instance (NO ≥ NC).
	for c, insts := range db.ByClass {
		if len(insts) == 0 {
			t.Errorf("class %d has no instances", c)
		}
	}
}

func TestDatabaseSizeMatchesPaper(t *testing.T) {
	// The paper's mid-size base (NC=50, NO=20000) is "about 20 MB" on
	// disk; the logical bytes run a little under that (packing overhead is
	// added by the storage layer).
	db := mustGenerate(t, DefaultParams(), 1)
	mb := float64(db.TotalBytes()) / 1e6
	if mb < 13 || mb > 22 {
		t.Errorf("default base = %.1f MB logical, want ≈ 16-17 MB", mb)
	}
}

func TestByClassConsistent(t *testing.T) {
	db := mustGenerate(t, smallParams(), 3)
	count := 0
	for c, insts := range db.ByClass {
		for _, o := range insts {
			if int(db.ClassOf(o)) != c {
				t.Fatalf("ByClass[%d] contains object of class %d", c, db.ClassOf(o))
			}
			count++
		}
	}
	if count != len(db.objClass) {
		t.Fatalf("ByClass covers %d objects, want %d", count, len(db.objClass))
	}
}

func TestComputeStats(t *testing.T) {
	db := mustGenerate(t, smallParams(), 3)
	s := db.ComputeStats()
	if s.Classes != 10 || s.Objects != 500 {
		t.Fatalf("stats: %+v", s)
	}
	if s.AvgObjSize <= 0 || s.AvgRefs < 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestLocalityRestrictsClassRefs(t *testing.T) {
	p := smallParams()
	p.ClassLocality = 1
	db := mustGenerate(t, p, 5)
	for _, c := range db.Classes {
		for _, r := range c.Refs {
			if d := int(math.Abs(float64(r.Target - c.ID))); d > 1 {
				t.Fatalf("class %d references class %d, locality 1", c.ID, r.Target)
			}
		}
	}
}

func TestZipfObjClassSkews(t *testing.T) {
	p := smallParams()
	p.NO = 5000
	p.ObjClassDist = Zipf
	p.ZipfTheta = 1
	db := mustGenerate(t, p, 5)
	if len(db.ByClass[0]) <= len(db.ByClass[9]) {
		t.Errorf("Zipf class distribution not skewed: class0=%d class9=%d",
			len(db.ByClass[0]), len(db.ByClass[9]))
	}
}

// --- workload tests ---

func TestWorkloadDeterministic(t *testing.T) {
	db := mustGenerate(t, smallParams(), 11)
	a := GenerateWorkload(db, 99)
	b := GenerateWorkload(db, 99)
	if len(a.Hot) != len(b.Hot) {
		t.Fatal("hot lengths differ")
	}
	for i := range a.Hot {
		if a.Hot[i].Type != b.Hot[i].Type || a.Hot[i].Root != b.Hot[i].Root ||
			len(a.Hot[i].Ops) != len(b.Hot[i].Ops) {
			t.Fatalf("transaction %d differs", i)
		}
	}
}

func TestWorkloadMixMatchesProbabilities(t *testing.T) {
	p := DefaultParams()
	p.NC = 20
	p.NO = 2000
	p.HotN = 4000
	db := mustGenerate(t, p, 13)
	w := GenerateWorkload(db, 13)
	counts := map[TxType]int{}
	for _, tx := range w.Hot {
		counts[tx.Type]++
	}
	for tt, c := range counts {
		frac := float64(c) / float64(p.HotN)
		if math.Abs(frac-0.25) > 0.04 {
			t.Errorf("%v fraction = %.3f, want ≈ 0.25", tt, frac)
		}
	}
}

func TestOpsValidAndRooted(t *testing.T) {
	db := mustGenerate(t, smallParams(), 17)
	w := GenerateWorkload(db, 17)
	for _, tx := range w.Hot {
		if len(tx.Ops) == 0 {
			t.Fatal("empty transaction")
		}
		if tx.Ops[0].Object() != tx.Root {
			t.Fatalf("first op %d ≠ root %d", tx.Ops[0].Object(), tx.Root)
		}
		for _, op := range tx.Ops {
			if op.Object() < 0 || int(op.Object()) >= db.NumObjects() {
				t.Fatalf("op on invalid OID %d", op.Object())
			}
		}
	}
}

func TestTraversalsVisitOnce(t *testing.T) {
	// Set/simple/hierarchy traversals must not access the same object twice
	// within a transaction.
	db := mustGenerate(t, smallParams(), 19)
	w := GenerateWorkload(db, 19)
	for _, tx := range w.Hot {
		if tx.Type == StochasticTraversal {
			continue
		}
		seen := map[OID]bool{}
		for _, op := range tx.Ops {
			if seen[op.Object()] {
				t.Fatalf("%v visits %d twice", tx.Type, op.Object())
			}
			seen[op.Object()] = true
		}
	}
}

func TestSetAccessRespectsDepth(t *testing.T) {
	// With depth 0, a set access touches only the root.
	p := smallParams()
	p.SetDepth = 0
	p.PSet, p.PSimple, p.PHier, p.PStoch = 1, 0, 0, 0
	db := mustGenerate(t, p, 23)
	w := GenerateWorkload(db, 23)
	for _, tx := range w.Hot {
		if len(tx.Ops) != 1 {
			t.Fatalf("depth-0 set access has %d ops", len(tx.Ops))
		}
	}
}

func TestStochasticBounded(t *testing.T) {
	p := smallParams()
	p.PSet, p.PSimple, p.PHier, p.PStoch = 0, 0, 0, 1
	db := mustGenerate(t, p, 29)
	w := GenerateWorkload(db, 29)
	for _, tx := range w.Hot {
		if len(tx.Ops) > p.StoDepth+1 {
			t.Fatalf("stochastic traversal has %d ops, max %d", len(tx.Ops), p.StoDepth+1)
		}
	}
}

func TestHierarchyFollowsOnlyType0(t *testing.T) {
	db := mustGenerate(t, smallParams(), 31)
	g := NewGenerator(db, 31)
	for i := 0; i < 100; i++ {
		tx := g.Hierarchy(3)
		// Every non-root op must be reachable from some earlier op via a
		// type-0 reference.
		ok := map[OID]bool{tx.Root: true}
		for _, op := range tx.Ops[1:] {
			reachable := false
			for prev := range ok {
				for r, tgt := range db.RefsOf(prev) {
					if tgt == op.Object() && db.Classes[db.ClassOf(prev)].Refs[r].Type == 0 {
						reachable = true
					}
				}
			}
			if !reachable {
				t.Fatalf("hierarchy op %d not reachable via type-0 refs", op.Object())
			}
			ok[op.Object()] = true
		}
	}
}

func TestWritesFollowWriteProb(t *testing.T) {
	p := smallParams()
	p.WriteProb = 0.3
	p.HotN = 300
	db := mustGenerate(t, p, 37)
	w := GenerateWorkload(db, 37)
	writes, total := 0, 0
	for _, tx := range w.Hot {
		for _, op := range tx.Ops {
			total++
			if op.Write() {
				writes++
			}
		}
	}
	frac := float64(writes) / float64(total)
	if math.Abs(frac-0.3) > 0.05 {
		t.Errorf("write fraction = %.3f, want ≈ 0.3", frac)
	}
}

func TestReadOnlyByDefault(t *testing.T) {
	db := mustGenerate(t, smallParams(), 41)
	w := GenerateWorkload(db, 41)
	for _, tx := range w.Hot {
		for _, op := range tx.Ops {
			if op.Write() {
				t.Fatal("default workload must be read-only")
			}
		}
	}
}

func TestColdRunGenerated(t *testing.T) {
	p := smallParams()
	p.ColdN = 25
	db := mustGenerate(t, p, 43)
	w := GenerateWorkload(db, 43)
	if len(w.Cold) != 25 || len(w.Hot) != p.HotN {
		t.Fatalf("cold/hot = %d/%d", len(w.Cold), len(w.Hot))
	}
}

func TestHierarchyWorkload(t *testing.T) {
	db := mustGenerate(t, smallParams(), 47)
	txs := GenerateHierarchyWorkload(db, 47, 80, 3)
	if len(txs) != 80 {
		t.Fatalf("len = %d", len(txs))
	}
	for _, tx := range txs {
		if tx.Type != HierarchyTraversal {
			t.Fatalf("type = %v", tx.Type)
		}
	}
}

// Property: generation never panics and always yields a valid graph for
// arbitrary small parameter draws.
func TestPropertyGenerateAlwaysValid(t *testing.T) {
	f := func(ncRaw, noRaw, refRaw, seedRaw uint16) bool {
		nc := int(ncRaw%20) + 1
		no := nc + int(noRaw%300)
		p := DefaultParams()
		p.NC = nc
		p.NO = no
		p.MaxNRef = int(refRaw%8) + 1
		db, err := Generate(p, uint64(seedRaw))
		if err != nil {
			return false
		}
		for o := 0; o < db.NumObjects(); o++ {
			for _, r := range db.RefsOf(OID(o)) {
				if r != NilRef && (r < 0 || int(r) >= no) {
					return false
				}
			}
		}
		return db.NumObjects() == no && len(db.objClass) == no
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTxTypeStrings(t *testing.T) {
	names := map[TxType]string{
		SetAccess:           "SetAccess",
		SimpleTraversal:     "SimpleTraversal",
		HierarchyTraversal:  "HierarchyTraversal",
		StochasticTraversal: "StochasticTraversal",
		TxType(99):          "TxType(99)",
	}
	for tt, want := range names {
		if tt.String() != want {
			t.Errorf("%d.String() = %q", tt, tt.String())
		}
	}
	if Uniform.String() != "Uniform" || Zipf.String() != "Zipf" || Dist(9).String() != "Dist(9)" {
		t.Error("Dist.String wrong")
	}
}

func BenchmarkGenerateDatabase(b *testing.B) {
	p := DefaultParams()
	p.NO = 20000
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
