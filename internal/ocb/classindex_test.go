package ocb

import "testing"

// searchClass is the reference for classIndexOf: a binary search for the
// largest c with classStart[c] ≤ o.
func searchClass(classStart []OID, o OID) int {
	lo, hi := 0, len(classStart)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if classStart[mid] <= o {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestClassIndexBuckets checks the bucketed classIndexOf against the
// reference search for every OID of streaming bases (both v2 layouts build
// the same index): one class, one instance per
// class, fewer objects than four per class (one-OID buckets), Zipf class
// sizes and over a thousand classes. It also checks the table's size bound
// (at most 8·NC entries) and its step bound: over all OIDs, lookups step
// over at most NO/4 class boundaries in total.
func TestClassIndexBuckets(t *testing.T) {
	base := DefaultParams()
	base.HotN = 10
	cases := []struct {
		name   string
		nc, no int
		zipf   bool
	}{
		{"one-class", 1, 5000, false},
		{"no-eq-nc", 50, 50, false},
		{"no-lt-4nc", 50, 150, false},
		{"no-eq-4nc", 50, 200, false},
		{"zipf", 50, 20000, true},
		{"zipf-skewed", 200, 5000, true},
		{"nc-1000", 1000, 30000, false},
		{"nc-1500-zipf", 1500, 7000, true},
		{"uneven", 7, 100003, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := base
			p.NC, p.NO, p.Layout = c.nc, c.no, LayoutStream
			if c.zipf {
				p.ObjClassDist, p.ZipfTheta = Zipf, 1.2
			}
			for seed := uint64(1); seed <= 3; seed++ {
				db, err := Generate(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				if n := len(db.bucketClass); n > 8*p.NC {
					t.Errorf("seed %d: %d buckets for NC %d, want ≤ %d", seed, n, p.NC, 8*p.NC)
				}
				steps := 0
				for o := OID(0); int(o) < p.NO; o++ {
					want := searchClass(db.classStart, o)
					if got := db.classIndexOf(o); got != want {
						t.Fatalf("seed %d: classIndexOf(%d) = %d, want %d", seed, o, got, want)
					}
					steps += want - int(db.bucketClass[uint32(o)>>db.bucketShift])
				}
				if 4*steps > p.NO {
					t.Errorf("seed %d: lookups stepped over %d class boundaries in total, want ≤ NO/4 = %d", seed, steps, p.NO/4)
				}
			}
		})
	}
}
