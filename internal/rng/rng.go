// Package rng provides the deterministic, stream-splittable random number
// generation used by every stochastic component of the simulator.
//
// Discrete-event random simulation needs (a) reproducibility — the same
// seed must yield the same trajectory — and (b) independent streams, so
// that, e.g., the workload generator and the buffer's RANDOM policy do not
// perturb one another and so that replications are statistically
// independent. Streams are xoshiro256** generators whose 256-bit states are
// derived from a 64-bit seed via SplitMix64, the initialization recommended
// by the xoshiro authors.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random stream. It is not safe for
// concurrent use; the simulator is single-threaded by design.
type Source struct {
	s [4]uint64
}

// splitMix64 advances *x and returns the next SplitMix64 output.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed. Distinct seeds give streams that
// are, for simulation purposes, independent.
func New(seed uint64) *Source {
	var r Source
	r.Reinit(seed)
	return &r
}

// Reinit re-seeds r in place, leaving it in exactly the state New(seed)
// would produce. It lets long-lived components (replication contexts,
// recycled policies) replay a fresh stream without allocating a Source.
func (r *Source) Reinit(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitMix64(&x)
	}
	// All-zero state is invalid for xoshiro; splitMix64 cannot produce four
	// zero outputs, but keep the guard explicit.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// SubSeed derives the idx-th child seed of seed: the 64-bit seed whose
// stream NewStream(seed, idx) produces. Exposing the derivation lets
// callers that need a plain seed — e.g. the replication engine, which
// hands each replication its own seed for further splitting — use the same
// well-mixed SplitMix64 construction instead of ad-hoc arithmetic on the
// parent seed (additive schemes let adjacent experiment seeds collide with
// adjacent child indices).
func SubSeed(seed uint64, idx uint64) uint64 {
	x := seed
	base := splitMix64(&x)
	y := base + 0x632be59bd9b4e019*(idx+1)
	return splitMix64(&y)
}

// NewStream derives the idx-th substream of seed. Substreams with different
// (seed, idx) pairs are independent; this is how each replication and each
// model component gets its own stream.
func NewStream(seed uint64, idx uint64) *Source {
	return New(SubSeed(seed, idx))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// step is one xoshiro256** step: it returns the output of state s0…s3 and
// the advanced state. It is the package's one copy of the generator, small
// enough to inline, so Uint64 updates the Source in place and TallyIntn
// keeps the state in registers across its whole loop.
func step(s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64, uint64) {
	out := rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Float64 returns a uniform variate in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1.0p-53
}

// Intn returns a uniform integer in [0, n). It panics if n ≤ 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	// bits.Mul64 is a compiler intrinsic (one MULQ on amd64).
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// TallyIntn makes n draws of Intn(len(counts)) and adds one to counts[v]
// for each value v drawn. The draws, and the state it leaves r in, are
// those of n Intn calls; the loop only keeps the state in registers. It
// panics if counts is empty.
func (r *Source) TallyIntn(counts []int, n int) {
	if len(counts) == 0 {
		panic("rng: TallyIntn with no counts")
	}
	bound := uint64(len(counts))
	// Intn's rejection test, lo < bound && lo < (-bound)%bound, is
	// lo < (-bound)%bound alone, since (-bound)%bound < bound.
	reject := (-bound) % bound
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; n > 0; n-- {
		for {
			var x uint64
			x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			hi, lo := bits.Mul64(x, bound)
			if lo >= reject {
				counts[hi]++
				break
			}
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// IntRange returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponential variate with the given mean. It panics if
// mean ≤ 0. Used for interarrival and service times in validation models.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// PermInto draws a permutation of [0, n) by Fisher–Yates into dst's
// backing array when it has capacity for n elements (allocating
// otherwise), so repeated draws — one hot-root population per
// replication, for example — reuse one buffer.
func (r *Source) PermInto(dst []int, n int) []int {
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]int, n)
	}
	for i := range dst {
		dst[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}
