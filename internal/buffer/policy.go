// Package buffer implements the Buffering Manager substrate of VOODB: a
// fixed-capacity page buffer with interchangeable replacement policies.
//
// Table 3 of the paper lists the PGREP parameter with the values RANDOM,
// FIFO, LFU, LRU-K, CLOCK and GCLOCK; all are implemented here, plus MRU
// (a common extra baseline) and 2Q. The paper's validation experiments use
// LRU-1.
//
// The Manager is the only code that maps a page to its buffer state. It
// keeps the resident pages in frames 0…Len()−1, filled in order and emptied
// only all at once, and a policy ranks those frame numbers: its state lives
// in slices indexed by frame, grown as frames first fill.
package buffer

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/disk"
	"repro/internal/rng"
)

// PageID aliases the physical page identifier; the buffer caches disk pages.
type PageID = disk.PageID

// Policy is a replacement policy over the Manager's frames. Frames fill in
// order from 0 and empty only all at once (Reset). Every frame is Inserted,
// possibly Touched many times, and leaves through Victim, after which the
// Manager inserts the incoming page into that same frame before calling
// Victim again.
type Policy interface {
	// Name identifies the policy (e.g. "LRU", "GCLOCK").
	Name() string
	// Inserted tells the policy that frame f now holds page p, newly
	// resident. f is the next unused frame or the last Victim.
	Inserted(f int32, p PageID)
	// Touched tells the policy that the page in frame f was accessed again.
	Touched(f int32)
	// Victim selects the frame whose page is evicted to make room.
	// It panics if the policy tracks no frames (a Manager bug).
	Victim() int32
	// Reset forgets all frames.
	Reset()
}

// ColdInserter is implemented by policies that can insert a page at the
// eviction end of their ordering — used for reserved (never-touched)
// frames, which should be reclaimed before any referenced page.
type ColdInserter interface {
	InsertedCold(f int32, p PageID)
}

// Reseeder is implemented by policies whose eviction decisions consume
// randomness (RANDOM). Reseed re-derives the stream in place from seed —
// the state rng.New(seed) produces — so a recycled policy, Reset by a
// replication context instead of reconstructed, replays exactly like a
// freshly built one without allocating a new Source.
type Reseeder interface {
	Reseed(seed uint64)
}

// NewPolicy builds a policy from its PGREP name for a buffer of capacity
// frames. Recognized (case insensitive): the PolicyNames and "LRU-K" for
// any integer K ≥ 1. RANDOM requires a non-nil random source; other
// policies ignore it. Only 2Q uses capacity: its probation and ghost
// targets are fractions of it.
func NewPolicy(name string, src *rng.Source, capacity int) (Policy, error) {
	upper := strings.ToUpper(strings.TrimSpace(name))
	switch {
	case upper == "RANDOM":
		if src == nil {
			return nil, fmt.Errorf("buffer: RANDOM policy needs a random source")
		}
		return NewRandom(src), nil
	case upper == "FIFO":
		return NewFIFO(), nil
	case upper == "LFU":
		return NewLFU(), nil
	case upper == "LRU" || upper == "LRU-1":
		return NewLRUK(1), nil
	case strings.HasPrefix(upper, "LRU-"):
		k, err := strconv.Atoi(upper[len("LRU-"):])
		if err != nil || k < 1 {
			return nil, fmt.Errorf("buffer: bad LRU-K spec %q", name)
		}
		return NewLRUK(k), nil
	case upper == "MRU":
		return NewMRU(), nil
	case upper == "CLOCK":
		return NewClock(), nil
	case upper == "GCLOCK":
		return NewGClock(2), nil
	case upper == "2Q":
		return NewTwoQ(max(capacity, 4)), nil
	default:
		return nil, fmt.Errorf("buffer: unknown replacement policy %q", name)
	}
}

// PolicyNames lists the recognized PGREP values in a stable order.
func PolicyNames() []string {
	return []string{"RANDOM", "FIFO", "LFU", "LRU", "LRU-2", "MRU", "CLOCK", "GCLOCK", "2Q"}
}
