package buffer

import "repro/internal/rng"

// fifo evicts in insertion order; re-references do not rejuvenate a page.
type fifo struct {
	list frameList
}

// NewFIFO returns a FIFO policy.
func NewFIFO() Policy { return &fifo{} }

func (p *fifo) Name() string               { return "FIFO" }
func (p *fifo) Reset()                     { p.list.reset() }
func (p *fifo) Inserted(f int32, _ PageID) { p.list.pushFront(f) }
func (p *fifo) Touched(int32)              {} // FIFO ignores re-references

// InsertedCold places the page at the eviction end of the queue.
func (p *fifo) InsertedCold(f int32, _ PageID) { p.list.pushBack(f) }

func (p *fifo) Victim() int32 {
	if p.list.len == 0 {
		panic("buffer: FIFO victim of empty policy")
	}
	return p.list.popBack()
}

// lfu evicts the least frequently used page; ties break toward the least
// recently inserted. Frequencies persist only while the page is resident
// (this is in-buffer LFU, the variant OODB buffer managers used).
type lfu struct {
	frames []lfuFrame // one per frame in use
	clock  uint64     // advances on every insertion
}

type lfuFrame struct {
	count    uint64 // references while resident
	inserted uint64 // clock at insertion
}

// NewLFU returns an LFU policy.
func NewLFU() Policy { return &lfu{} }

func (p *lfu) Name() string { return "LFU" }

func (p *lfu) Reset() {
	p.frames = p.frames[:0]
	p.clock = 0
}

func (p *lfu) Inserted(f int32, _ PageID) {
	if int(f) == len(p.frames) {
		p.frames = append(p.frames, lfuFrame{})
	}
	p.clock++
	p.frames[f] = lfuFrame{count: 1, inserted: p.clock}
}

func (p *lfu) Touched(f int32) { p.frames[f].count++ }

func (p *lfu) Victim() int32 {
	if len(p.frames) == 0 {
		panic("buffer: LFU victim of empty policy")
	}
	victim := int32(0)
	for f, fr := range p.frames {
		v := p.frames[victim]
		if fr.count < v.count || fr.count == v.count && fr.inserted < v.inserted {
			victim = int32(f)
		}
	}
	return victim
}

// random evicts a uniformly random resident page. Deterministic given its
// source, as required for reproducible replications.
type random struct {
	src *rng.Source
	// order lists the frames in use in the order the draw indexes them: a
	// victim's slot takes the last frame, and its frame rejoins at the end
	// when refilled.
	order []int32
}

// NewRandom returns a RANDOM policy drawing from src.
func NewRandom(src *rng.Source) Policy {
	if src == nil {
		panic("buffer: NewRandom with nil source")
	}
	return &random{src: src}
}

func (p *random) Name() string { return "RANDOM" }

// Reseed re-derives the eviction stream in place (see Reseeder).
func (p *random) Reseed(seed uint64) {
	p.src.Reinit(seed)
}

func (p *random) Reset()                     { p.order = p.order[:0] }
func (p *random) Inserted(f int32, _ PageID) { p.order = append(p.order, f) }
func (p *random) Touched(int32)              {}

func (p *random) Victim() int32 {
	n := len(p.order)
	if n == 0 {
		panic("buffer: RANDOM victim of empty policy")
	}
	i := p.src.Intn(n)
	f := p.order[i]
	p.order[i] = p.order[n-1]
	p.order = p.order[:n-1]
	return f
}
