package rng

import "math"

// Zipf draws variates in [0, n) with P(k) ∝ 1/(k+1)^theta. It is used by
// the OCB workload to model skewed object popularity. theta = 0 degenerates
// to the uniform distribution.
//
// The implementation precomputes the CDF and samples by binary search,
// which is exact and fast for the n ≤ a few 10⁵ used here.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf builds a Zipf sampler over [0, n). It panics if n ≤ 0 or
// theta < 0.
func NewZipf(src *Source, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	if theta < 0 {
		panic("rng: NewZipf with negative theta")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, src: src}
}

// Next draws the next variate.
func (z *Zipf) Next() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Discrete samples indices proportionally to the given non-negative
// weights. Used, e.g., to pick a transaction type with the probabilities of
// Table 5.
type Discrete struct {
	cdf []float64
	src *Source
}

// NewDiscrete builds a sampler over weights. It panics if weights is empty,
// contains a negative value, or sums to zero.
func NewDiscrete(src *Source, weights []float64) *Discrete {
	if len(weights) == 0 {
		panic("rng: NewDiscrete with no weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: NewDiscrete with negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("rng: NewDiscrete with zero total weight")
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[len(cdf)-1] = 1
	return &Discrete{cdf: cdf, src: src}
}

// Next draws an index in [0, len(weights)).
func (d *Discrete) Next() int {
	u := d.src.Float64()
	lo, hi := 0, len(d.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
