package ocb

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
)

// digester hashes int32 fields with FNV-1a, little-endian.
type digester struct {
	h   hash.Hash64
	buf [4]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) put(v int32) {
	binary.LittleEndian.PutUint32(d.buf[:], uint32(v))
	d.h.Write(d.buf[:])
}

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// baseDigest hashes everything a generated base exposes: the schema, every
// object's class, size and references (read through ClassOf, SizeOf and
// RefsOf, so a streaming base is hashed through its derivation path), the
// per-class instance lists and OID ranges, and the hot roots.
func baseDigest(db *Database) string {
	d := newDigester()
	d.put(int32(len(db.Classes)))
	for _, c := range db.Classes {
		d.put(int32(c.InstanceSize))
		d.put(int32(len(c.Refs)))
		for _, cr := range c.Refs {
			d.put(int32(cr.Target))
			d.put(int32(cr.Type))
		}
	}
	n := db.NumObjects()
	d.put(int32(n))
	for o := OID(0); int(o) < n; o++ {
		d.put(db.ClassOf(o))
		d.put(db.SizeOf(o))
		refs := db.RefsOf(o)
		d.put(int32(len(refs)))
		for _, r := range refs {
			d.put(int32(r))
		}
	}
	d.put(int32(len(db.ByClass)))
	for c := range db.Classes {
		d.put(int32(db.ClassCount(c)))
		if c < len(db.ByClass) {
			for _, o := range db.ByClass[c] {
				d.put(int32(o))
			}
		}
		lo, hi, ok := db.ClassRange(c)
		d.put(int32(lo))
		d.put(int32(hi))
		if ok {
			d.put(1)
		} else {
			d.put(0)
		}
	}
	d.put(int32(len(db.HotRoots)))
	for _, o := range db.HotRoots {
		d.put(int32(o))
	}
	return d.sum()
}

// digestBaseParams returns the pinned generation cases: the paper's bases,
// tight locality, the single-class base whose every reference is
// same-class (so the self-reference retries run), the one-instance-per-
// class base (so the NilRef fallback runs), Zipf class population and
// class references, and an all-hierarchy schema.
func digestBaseParams() []struct {
	name string
	p    Params
} {
	def := DefaultParams()
	nc20 := def
	nc20.NC = 20
	loc1 := def
	loc1.ObjectLocality = 1
	nc1 := def
	nc1.NC = 1
	nc1.ClassLocality = 1
	noEqNC := def
	noEqNC.NO = def.NC
	zipf := def
	zipf.ObjClassDist = Zipf
	zipf.ClassRefDist = Zipf
	zipf.ZipfTheta = 0.8
	type0 := def
	type0.TypeZeroBias = 1
	return []struct {
		name string
		p    Params
	}{
		{"default", def},
		{"nc20", nc20},
		{"dstc", DSTCExperimentParams()},
		{"locality1", loc1},
		{"nc1", nc1},
		{"no=nc", noEqNC},
		{"zipf", zipf},
		{"typezero", type0},
	}
}

// TestGenerateDigests pins every generated base absolutely, under each
// layout. The v2 layouts are otherwise only checked against each other, so
// a change to the reference draws that moved both alike would pass every
// other test; these digests catch it, and any change to generation that
// claims identical bases must leave them alone.
func TestGenerateDigests(t *testing.T) {
	want := map[string]string{
		"default/eager":     "308e7e7e1fc26987",
		"default/eagerv2":   "153b10c11c16a6d8",
		"default/stream":    "410c820198c5462a",
		"nc20/eager":        "22d0b44afa96aa5e",
		"nc20/eagerv2":      "123040231608cba2",
		"nc20/stream":       "577b2704b3297d8a",
		"dstc/eager":        "80e54d92c42f23ed",
		"dstc/eagerv2":      "9734258058a02652",
		"dstc/stream":       "fc15b3bbb0bfb408",
		"locality1/eager":   "359dd99da61d44cd",
		"locality1/eagerv2": "6cf2d3bd40eb0aed",
		"locality1/stream":  "c475f23dab5779d7",
		"nc1/eager":         "2e21c26c598611cf",
		"nc1/eagerv2":       "19781e326379d285",
		"nc1/stream":        "322825016939cde4",
		"no=nc/eager":       "ff6ae4c17a360605",
		"no=nc/eagerv2":     "134b2547edea0d87",
		"no=nc/stream":      "e20268ce302984b4",
		"zipf/eager":        "da89506f24e1167c",
		"zipf/eagerv2":      "265e9228d3c2c7d0",
		"zipf/stream":       "843e0c7a05ccb0a6",
		"typezero/eager":    "3523fdea254501c7",
		"typezero/eagerv2":  "eae5c772dd3bd318",
		"typezero/stream":   "f3a4d86cad70516a",
	}
	for _, c := range digestBaseParams() {
		for _, layout := range []Layout{LayoutEager, LayoutEagerV2, LayoutStream} {
			key := c.name + "/" + layout.String()
			p := c.p
			p.Layout = layout
			db, err := Generate(p, 1999)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := baseDigest(db); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// workloadDigest hashes every transaction of w: its ID, type, root and
// each op (OID and write bit).
func workloadDigest(w *Workload) string {
	d := newDigester()
	for _, txs := range [][]Transaction{w.Cold, w.Hot} {
		d.put(int32(len(txs)))
		for _, tx := range txs {
			d.put(int32(tx.ID))
			d.put(int32(tx.Type))
			d.put(int32(tx.Root))
			d.put(int32(len(tx.Ops)))
			for _, op := range tx.Ops {
				d.put(int32(op))
			}
		}
	}
	return d.sum()
}

// TestWorkloadDigests pins the workload generators absolutely: the mixed
// fill (Workload.GenerateInto) and the §4.4 hierarchy fill
// (GenerateHierarchyInto, depth 3), over an eager and a streaming base,
// with updates, Zipf-distributed roots and a hot-root population.
func TestWorkloadDigests(t *testing.T) {
	base := DefaultParams()
	base.NC = 20
	base.NO = 5000
	base.ColdN = 20
	base.HotN = 300
	writes := base
	writes.WriteProb = 0.3
	zipfRoots := base
	zipfRoots.RootDist = Zipf
	hot := base
	hot.HotRootCount = 60
	hotZipf := hot
	hotZipf.RootDist = Zipf
	cases := []struct {
		name string
		p    Params
	}{
		{"base", base},
		{"writes", writes},
		{"zipfroots", zipfRoots},
		{"hotroots", hot},
		{"hotzipf", hotZipf},
	}
	want := map[string]string{
		"base/eager/mixed":           "943da2e04c8b17bd",
		"base/eager/hierarchy":       "5076cb9ee1d1d501",
		"base/stream/mixed":          "b5b80c5069c6c140",
		"base/stream/hierarchy":      "ebebbd1596a5ebf8",
		"writes/eager/mixed":         "c05f223e4c765bf1",
		"writes/eager/hierarchy":     "dcb3c6996b2a3a09",
		"writes/stream/mixed":        "dc5ad3b822e7b476",
		"writes/stream/hierarchy":    "1c50db4f1bba324c",
		"zipfroots/eager/mixed":      "2698e98ab33cc14e",
		"zipfroots/eager/hierarchy":  "17118d99b183add9",
		"zipfroots/stream/mixed":     "a9c39e1fba18ab26",
		"zipfroots/stream/hierarchy": "de1f6371fe3f941a",
		"hotroots/eager/mixed":       "cd615b3c26192217",
		"hotroots/eager/hierarchy":   "ccbbaf4a0b5fcce2",
		"hotroots/stream/mixed":      "f6a3d9aa22b4019b",
		"hotroots/stream/hierarchy":  "c104c759669d89cd",
		"hotzipf/eager/mixed":        "d451684d5ab7bab6",
		"hotzipf/eager/hierarchy":    "f05d2f9cd6b7eaca",
		"hotzipf/stream/mixed":       "41b81ab796765466",
		"hotzipf/stream/hierarchy":   "22cea78011b38e10",
	}
	for _, c := range cases {
		for _, layout := range []Layout{LayoutEager, LayoutStream} {
			p := c.p
			p.Layout = layout
			db, err := Generate(p, 2027)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.name, layout, err)
			}
			w := new(Workload)
			w.GenerateInto(db, 11)
			key := c.name + "/" + layout.String()
			if got := workloadDigest(w); got != want[key+"/mixed"] {
				t.Errorf("%s/mixed: digest %s, want %s", key, got, want[key+"/mixed"])
			}
			w.Release()
			w.GenerateHierarchyInto(db, 13, 400, 3)
			if got := workloadDigest(w); got != want[key+"/hierarchy"] {
				t.Errorf("%s/hierarchy: digest %s, want %s", key, got, want[key+"/hierarchy"])
			}
		}
	}
}
