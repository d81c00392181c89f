package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestQuantilesExact(t *testing.T) {
	var q Quantiles
	for _, v := range []float64{5, 1, 3, 2, 4} {
		q.Add(v)
	}
	if q.N() != 5 {
		t.Fatalf("N = %d", q.N())
	}
	if q.At(0) != 1 || q.At(1) != 5 {
		t.Errorf("extremes: %v, %v", q.At(0), q.At(1))
	}
	if q.Median() != 3 {
		t.Errorf("median = %v", q.Median())
	}
	// 0.25 quantile of [1..5] interpolates to 2.
	if got := q.At(0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	// Interpolation between order statistics.
	if got := q.At(0.125); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("q12.5 = %v, want 1.5", got)
	}
}

func TestQuantilesAddAfterQuery(t *testing.T) {
	var q Quantiles
	q.Add(10)
	if q.Median() != 10 {
		t.Fatal("single-element median")
	}
	q.Add(0)
	if q.Median() != 5 {
		t.Fatalf("median after re-add = %v", q.Median())
	}
	q.Reset()
	if q.N() != 0 {
		t.Fatal("reset failed")
	}
}

func TestQuantilesPanics(t *testing.T) {
	var q Quantiles
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	assertPanics("empty", func() { q.At(0.5) })
	q.Add(1)
	assertPanics("p>1", func() { q.At(1.5) })
	assertPanics("p<0", func() { q.At(-0.1) })
}

func TestQuantilesUniform(t *testing.T) {
	var q Quantiles
	src := rng.New(1)
	for i := 0; i < 50000; i++ {
		q.Add(src.Float64())
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got := q.At(p); math.Abs(got-p) > 0.01 {
			t.Errorf("uniform q%.2f = %v", p, got)
		}
	}
}
