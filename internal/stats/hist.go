package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantiles computes exact empirical quantiles over the recorded
// observations. Use it for response-time percentiles, where a mean hides
// the tail the paper's users would feel.
type Quantiles struct {
	xs     []float64
	sorted bool
}

// Add records an observation.
func (q *Quantiles) Add(x float64) {
	q.xs = append(q.xs, x)
	q.sorted = false
}

// N returns the number of observations.
func (q *Quantiles) N() int { return len(q.xs) }

// At returns the p-quantile (0 ≤ p ≤ 1) with linear interpolation between
// order statistics. It panics on an empty sample or p outside [0, 1].
func (q *Quantiles) At(p float64) float64 {
	if len(q.xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: quantile p = %v", p))
	}
	if !q.sorted {
		sort.Float64s(q.xs)
		q.sorted = true
	}
	if len(q.xs) == 1 {
		return q.xs[0]
	}
	pos := p * float64(len(q.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return q.xs[lo]
	}
	frac := pos - float64(lo)
	return q.xs[lo]*(1-frac) + q.xs[hi]*frac
}

// Median returns the 0.5 quantile.
func (q *Quantiles) Median() float64 { return q.At(0.5) }

// Reset drops all observations.
func (q *Quantiles) Reset() {
	q.xs = q.xs[:0]
	q.sorted = false
}
