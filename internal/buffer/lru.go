package buffer

import "fmt"

// lru is classic LRU (LRU-1): frames on one list, most recently used at the
// front; the victim is the back.
type lru struct {
	list frameList
}

// NewLRUK returns an LRU-K policy (O'Neil et al.). K must be ≥ 1; K = 1 is
// classic LRU.
func NewLRUK(k int) Policy {
	if k < 1 {
		panic(fmt.Sprintf("buffer: LRU-K with k=%d", k))
	}
	if k == 1 {
		return &lru{}
	}
	return &lruK{k: k}
}

func (p *lru) Name() string                   { return "LRU" }
func (p *lru) Reset()                         { p.list.reset() }
func (p *lru) Inserted(f int32, _ PageID)     { p.list.pushFront(f) }
func (p *lru) Touched(f int32)                { p.list.moveToFront(f) }
func (p *lru) InsertedCold(f int32, _ PageID) { p.list.pushBack(f) }

func (p *lru) Victim() int32 {
	if p.list.len == 0 {
		panic("buffer: LRU victim of empty policy")
	}
	return p.list.popBack()
}

// lruK is LRU-K for K ≥ 2: the victim is the frame whose K-th most recent
// reference is oldest ("maximum backward K-distance"). Frames with fewer
// than K references have infinite backward distance and go first, oldest
// reference first. A cold insertion is stamped 0, older than any access;
// ties, which only cold insertions create, go to the most recently
// inserted frame, the order in which LRU, FIFO and 2Q evict cold
// reservations. Every victim is a scan of the frames in use.
type lruK struct {
	k      int
	clock  uint64   // advances on every insertion and touch
	frames []kFrame // one per frame in use
	hist   []uint64 // k timestamps per frame, most recent first
}

type kFrame struct {
	refs     int    // timestamps recorded in hist, at most k
	inserted uint64 // clock at insertion
}

func (p *lruK) Name() string { return fmt.Sprintf("LRU-%d", p.k) }

func (p *lruK) Reset() {
	p.clock = 0
	p.frames = p.frames[:0]
}

// insert records frame f's first reference, stamped stamp.
func (p *lruK) insert(f int32, stamp uint64) {
	if int(f) == len(p.frames) {
		p.frames = extend(p.frames, int(f)+1)
		p.hist = extend(p.hist, len(p.frames)*p.k)
	}
	p.frames[f] = kFrame{refs: 1, inserted: p.clock}
	p.hist[int(f)*p.k] = stamp
}

func (p *lruK) Inserted(f int32, _ PageID) {
	p.clock++
	p.insert(f, p.clock)
}

// InsertedCold stamps the page 0: infinite backward K-distance and the
// oldest possible reference, so it is the next victim unless touched.
func (p *lruK) InsertedCold(f int32, _ PageID) {
	p.clock++
	p.insert(f, 0)
}

func (p *lruK) Touched(f int32) {
	p.clock++
	fr := &p.frames[f]
	if fr.refs < p.k {
		fr.refs++
	}
	h := p.hist[int(f)*p.k : int(f)*p.k+fr.refs]
	copy(h[1:], h)
	h[0] = p.clock
}

func (p *lruK) Victim() int32 {
	if len(p.frames) == 0 {
		panic("buffer: LRU-K victim of empty policy")
	}
	victim := int32(-1)
	var vInf bool
	var vKey, vIns uint64
	for f, fr := range p.frames {
		inf := fr.refs < p.k
		// The oldest recorded reference: the K-th most recent one once
		// there are K of them.
		key := p.hist[f*p.k+fr.refs-1]
		if victim < 0 || inf && !vInf ||
			inf == vInf && (key < vKey || key == vKey && fr.inserted > vIns) {
			victim, vInf, vKey, vIns = int32(f), inf, key, fr.inserted
		}
	}
	return victim
}

// mru evicts the most recently used page — a useful baseline for scan-heavy
// workloads where LRU degenerates.
type mru struct {
	list frameList
}

// NewMRU returns an MRU policy.
func NewMRU() Policy { return &mru{} }

func (p *mru) Name() string               { return "MRU" }
func (p *mru) Reset()                     { p.list.reset() }
func (p *mru) Inserted(f int32, _ PageID) { p.list.pushFront(f) }
func (p *mru) Touched(f int32)            { p.list.moveToFront(f) }

func (p *mru) Victim() int32 {
	if p.list.len == 0 {
		panic("buffer: MRU victim of empty policy")
	}
	f := p.list.front
	p.list.remove(f)
	return f
}
