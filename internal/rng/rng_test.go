package rng

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d/1000 times", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	s0 := NewStream(42, 0)
	s1 := NewStream(42, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if s0.Uint64() == s1.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("substreams coincided %d/1000 times", same)
	}
	// Same (seed, idx) must reproduce.
	a, b := NewStream(7, 3), NewStream(7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same substream diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(2)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sum2 += f * f
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ≈ 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance = %v, want ≈ 1/12", variance)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(3)
	const n, buckets = 120000, 12
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Errorf("bucket %d: %d draws, want ≈ %.0f", b, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	r := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("IntRange(4,4) = %d", got)
	}
}

func TestExpMean(t *testing.T) {
	r := New(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(3.5)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-3.5) > 0.05 {
		t.Errorf("Exp mean = %v, want ≈ 3.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	p := r.PermInto(nil, 100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPropertyIntnInRange(t *testing.T) {
	r := New(9)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfThetaZeroIsUniform(t *testing.T) {
	r := New(10)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/10) > n/10*0.08 {
			t.Errorf("theta=0 bucket %d: %d, want ≈ %d", b, c, n/10)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(11)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf(1.0): rank 0 (%d) not more popular than rank 50 (%d)", counts[0], counts[50])
	}
	// P(0)/P(1) should be ≈ 2 for theta=1.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("Zipf(1.0): P(0)/P(1) = %v, want ≈ 2", ratio)
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(12)
	z := NewZipf(r, 7, 0.86)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 7 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestDiscrete(t *testing.T) {
	r := New(13)
	d := NewDiscrete(r, []float64{1, 0, 3})
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Next()]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket drew %d times", counts[1])
	}
	if math.Abs(float64(counts[0])-n/4) > n/4*0.08 {
		t.Errorf("bucket 0: %d, want ≈ %d", counts[0], n/4)
	}
	if math.Abs(float64(counts[2])-3*n/4) > 3*n/4*0.05 {
		t.Errorf("bucket 2: %d, want ≈ %d", counts[2], 3*n/4)
	}
}

func TestDiscretePanics(t *testing.T) {
	r := New(14)
	for name, weights := range map[string][]float64{
		"empty":    {},
		"negative": {1, -1},
		"all zero": {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewDiscrete(r, weights)
		}()
	}
}

// TestTallyIntnMatchesIntn: TallyIntn(counts, n) adds the same counts as n
// Intn(len(counts)) calls and leaves the Source in the same state, for
// bounds with and without a rejection zone and for several draw counts.
func TestTallyIntnMatchesIntn(t *testing.T) {
	for _, k := range []int{1, 2, 3, 50, 1000} {
		for _, n := range []int{0, 1, 2, 7, 1000, 100_003} {
			for seed := uint64(1); seed <= 3; seed++ {
				want, got := make([]int, k), make([]int, k)
				for i := range want {
					want[i], got[i] = i, i // TallyIntn adds to what is there
				}
				a, b := New(seed), New(seed)
				for i := 0; i < n; i++ {
					want[a.Intn(k)]++
				}
				b.TallyIntn(got, n)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k=%d n=%d seed=%d: counts[%d] = %d, want %d", k, n, seed, i, got[i], want[i])
					}
				}
				if a.s != b.s {
					t.Fatalf("k=%d n=%d seed=%d: state %x after TallyIntn, want %x", k, n, seed, b.s, a.s)
				}
			}
		}
	}
}

// TestTallyIntnRejects runs the rejection branch: with s[1] = 0 the next
// raw output is 0, whose product with any bound is 0, below (-k)%k for a
// k that is not a power of two. Intn then draws twice, and TallyIntn must
// too.
func TestTallyIntnRejects(t *testing.T) {
	for _, k := range []int{3, 50, 1000} {
		start := Source{s: [4]uint64{0x9e3779b97f4a7c15, 0, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}}
		a, b, raw := start, start, start
		want := make([]int, k)
		want[a.Intn(k)]++
		raw.Uint64()
		raw.Uint64()
		if a.s != raw.s {
			t.Fatalf("k=%d: Intn did not reject the zero output", k)
		}
		got := make([]int, k)
		b.TallyIntn(got, 1)
		if b.s != a.s {
			t.Fatalf("k=%d: state %x after TallyIntn, want %x", k, b.s, a.s)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: counts[%d] = %d, want %d", k, i, got[i], want[i])
			}
		}
	}
}

func TestTallyIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TallyIntn with no counts did not panic")
		}
	}()
	New(1).TallyIntn(nil, 1)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

// BenchmarkIntn draws bounded integers at the bounds object-base
// generation uses: a class count, a window of ±100 ranks, and NO.
func BenchmarkIntn(b *testing.B) {
	for _, n := range []int{50, 201, 20000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			r := New(1)
			for i := 0; i < b.N; i++ {
				r.Intn(n)
			}
		})
	}
}

func BenchmarkZipf(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 20000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
