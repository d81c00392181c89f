package buffer

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/rng"
)

// traceDigest replays a long pseudo-random Access/Reserve/MarkDirty/
// InvalidateAll trace on a small Manager and hashes everything the trace
// observes: each call's result (hit, reserved, evicted pages and their
// dirtiness), the accessed page's residency afterwards, and the final
// counters. Two policies that evict the same pages in the same order hash
// the same.
func traceDigest(t *testing.T, name string, cold bool) string {
	t.Helper()
	const (
		ops      = 200_000
		frames   = 37
		pages    = 160
		hotPages = 40
	)
	pol, err := NewPolicy(name, rng.New(2024), frames)
	if err != nil {
		t.Fatal(err)
	}
	m := New(frames, pol)
	m.SetReserveCold(cold)

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	putResult := func(r AccessResult) {
		put(flag(r.Hit)<<1 | flag(r.WasReserved))
		put(uint64(len(r.Evicted)))
		for _, e := range r.Evicted {
			put(uint64(e.Page)<<1 | flag(e.Dirty))
		}
	}

	state := uint64(0x5eed)
	next := func() uint64 {
		// splitmix64: a fixed local stream, so the digests depend on the
		// buffer alone.
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < ops; i++ {
		r := next()
		p := PageID((r >> 16) % pages)
		if (r>>40)%4 != 0 {
			p = PageID((r >> 16) % hotPages)
		}
		switch op := r % 1000; {
		case op < 2:
			m.InvalidateAll()
			put(7)
		case op < 650:
			put(1)
			putResult(m.Access(p, (r>>8)%4 == 0))
		case op < 900:
			put(2)
			putResult(m.Reserve(p))
		default:
			put(3 + flag(m.MarkDirty(p)))
		}
		put(uint64(p)<<2 | flag(m.Contains(p))<<1 | flag(m.IsReserved(p)))
		if m.Len() > m.Capacity() {
			t.Fatalf("%s: %d frames in use, capacity %d", name, m.Len(), m.Capacity())
		}
	}
	put(m.Hits())
	put(m.Misses())
	put(m.Evictions())
	put(m.Writebacks())
	put(uint64(m.Len()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPolicyTraceDigests pins every replacement policy's eviction
// decisions on one long trace, with reservations inserted hot and cold.
// Any change to a policy's data structures must leave these digests alone.
// LRU-K's cold digests pin its tie rule between cold reservations.
func TestPolicyTraceDigests(t *testing.T) {
	want := map[string][2]string{ // name → {hot reservations, cold reservations}
		"RANDOM": {"4ba421ec8183f613", "4ba421ec8183f613"},
		"FIFO":   {"82e7e7a132333d30", "fc70bcec18a7b4ba"},
		"LFU":    {"ee33823c31b9e9f2", "ee33823c31b9e9f2"},
		"LRU":    {"7a9f8613ef1b9a68", "e482d69ee99d5e35"},
		"LRU-2":  {"577209b3f87f252d", "1ca28d436c78b6d7"},
		"MRU":    {"64f3ab53896b5c01", "64f3ab53896b5c01"},
		"CLOCK":  {"29cb4b042a22959b", "35370f92a5d2b253"},
		"GCLOCK": {"29948205884eec85", "48125edc699a9040"},
		"2Q":     {"808c17e315d702ed", "7732c0c7871c5a2c"},
		"LRU-3":  {"7ebd5b67567c2f77", "3c6b6f55b95908d3"},
	}
	names := append(PolicyNames(), "LRU-3")
	if len(names) != len(want) {
		t.Fatalf("policies %v, digests pinned for %d", names, len(want))
	}
	for _, name := range names {
		for i, cold := range []bool{false, true} {
			got := traceDigest(t, name, cold)
			if w := want[name][i]; got != w {
				t.Errorf("%s (cold reservations %v): digest %s, want %s", name, cold, got, w)
			}
		}
	}
}

// TestLRUKColdTraceRepeats replays the cold-reservation trace several times
// under LRU-K: cold reservations all carry timestamp 0, and a victim chosen
// among such ties must not depend on iteration order.
func TestLRUKColdTraceRepeats(t *testing.T) {
	for _, name := range []string{"LRU-2", "LRU-3"} {
		first := traceDigest(t, name, true)
		for i := 0; i < 4; i++ {
			if got := traceDigest(t, name, true); got != first {
				t.Fatalf("%s: run %d digest %s, first run %s", name, i+2, got, first)
			}
		}
	}
}
