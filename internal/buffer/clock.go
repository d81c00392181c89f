package buffer

import "fmt"

// clock implements the CLOCK (second chance) policy: the frames in use form
// a circle in frame order; a hand sweeps it, clearing reference bits and
// evicting the first page found with a clear bit. GCLOCK generalizes the
// bit to a counter set to weight on every reference and decremented per
// sweep. A victim's frame takes the incoming page, so the new page sits
// just behind the hand and is examined last in the current sweep, as in
// the classic formulation.
type clock struct {
	weight int32   // 1 = CLOCK, >1 = GCLOCK
	ref    []int32 // one counter per frame in use
	hand   int32
}

// NewClock returns the CLOCK policy.
func NewClock() Policy { return &clock{weight: 1} }

// NewGClock returns the GCLOCK policy with the given counter weight (≥ 1).
func NewGClock(weight int) Policy {
	if weight < 1 {
		panic(fmt.Sprintf("buffer: GCLOCK weight %d", weight))
	}
	return &clock{weight: int32(weight)}
}

func (p *clock) Name() string {
	if p.weight == 1 {
		return "CLOCK"
	}
	return "GCLOCK"
}

func (p *clock) Reset() {
	p.ref = p.ref[:0]
	p.hand = 0
}

func (p *clock) Inserted(f int32, _ PageID) { p.insert(f, p.weight) }

// InsertedCold inserts with a clear reference count: the hand evicts it on
// first encounter unless it is touched first.
func (p *clock) InsertedCold(f int32, _ PageID) { p.insert(f, 0) }

func (p *clock) insert(f, ref int32) {
	if int(f) == len(p.ref) {
		p.ref = append(p.ref, 0)
	}
	p.ref[f] = ref
}

func (p *clock) Touched(f int32) { p.ref[f] = p.weight }

func (p *clock) Victim() int32 {
	if len(p.ref) == 0 {
		panic("buffer: CLOCK victim of empty policy")
	}
	for {
		f := p.hand
		if p.hand++; int(p.hand) == len(p.ref) {
			p.hand = 0
		}
		if p.ref[f] == 0 {
			return f
		}
		p.ref[f]--
	}
}
