package rng

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// drawDigest hashes the values draw returns over n calls.
func drawDigest(n int, draw func() int) string {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(draw()))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestIntnDigests pins Intn's draws absolutely, from tiny bounds to
// math.MaxInt64. At 3·2⁶¹ about a quarter of the raw 64-bit outputs fall
// in the rejection zone, so the rejection branch is pinned too (the test
// checks that it ran).
func TestIntnDigests(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{1, "2c36c2471ceec525"},
		{2, "ace54823a3b934e4"},
		{3, "7da5435abc6c6304"},
		{7, "6d776ddec2533a26"},
		{50, "71b69d0ffa2f51d0"},
		{20000, "e3989f3597d4e4ed"},
		{math.MaxInt32, "7ec7a87cce44aec4"},
		{1<<32 + 1, "0bc0c1cee4272be5"},
		{3 << 61, "b012423353f16b3a"},
		{math.MaxInt64, "94463e09646e1412"},
	}
	const draws = 2000
	for _, c := range cases {
		r := New(uint64(c.n))
		if got := drawDigest(draws, func() int { return r.Intn(c.n) }); got != c.want {
			t.Errorf("Intn(%d): digest %s, want %s", c.n, got, c.want)
		}
	}

	// Rejection: a source that rejected at least once has consumed more
	// than one Uint64 per draw.
	r, raw := New(3), New(3)
	for i := 0; i < draws; i++ {
		r.Intn(3 << 61)
		raw.Uint64()
	}
	if *r == *raw {
		t.Error("Intn(3·2⁶¹) never rejected a draw")
	}
}

// TestIntRangePermDigests pins IntRange over negative, mixed and wide
// ranges, and PermInto into a fresh and a recycled buffer.
func TestIntRangePermDigests(t *testing.T) {
	ranges := []struct {
		lo, hi int
		want   string
	}{
		{0, 0, "2c36c2471ceec525"},
		{-5, 5, "f0337ddeadb641b5"},
		{-100, -1, "ca9cb8a53465f51a"},
		{1, 31, "bcfa3e67c3ad7001"},
		{-(1 << 61), 1 << 61, "fd697767c142b42b"},
	}
	for _, c := range ranges {
		r := New(uint64(c.hi - c.lo))
		if got := drawDigest(2000, func() int { return r.IntRange(c.lo, c.hi) }); got != c.want {
			t.Errorf("IntRange(%d, %d): digest %s, want %s", c.lo, c.hi, got, c.want)
		}
	}

	perms := []struct {
		n    int
		want string
	}{
		{1000, "4836987298c134c1"},
		{10, "1f083ab3e9edb664"},
		{20000, "4c4f4188fe1cef39"},
		{1, "a8c7f832281a39c5"},
	}
	var buf []int
	for _, c := range perms {
		r := New(uint64(c.n) + 7)
		buf = r.PermInto(buf[:0], c.n)
		i := 0
		if got := drawDigest(c.n, func() int { i++; return buf[i-1] }); got != c.want {
			t.Errorf("PermInto(%d): digest %s, want %s", c.n, got, c.want)
		}
	}
}
