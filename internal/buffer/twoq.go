package buffer

// twoQ implements the 2Q policy (Johnson & Shasha, VLDB '94 — contemporary
// with the systems the paper models): newly admitted pages enter a FIFO
// probation queue (A1in); pages evicted from probation are remembered in a
// ghost queue (A1out, identifiers only); a page re-admitted while its ghost
// is remembered — or re-referenced while on probation — is promoted to the
// protected LRU queue (Am). One-touch scans therefore flow through
// probation without flushing the hot set — the weakness of plain LRU that
// Table 3's "Other" slot invites exploring.
//
// The ghost queue is the only state any policy keeps about pages that are
// not resident. Its entries live in slots threaded on a list, newest at the
// front, and ghostOf maps a page to its newest slot. A cold insertion does
// not consult the ghosts, so a page can be queued twice; dropping the older
// entry off the back then forgets the page's newer one too, and the newer
// entry stays queued, unreachable, until it reaches the back itself.
type twoQ struct {
	a1Max    int // probation target (¼ of capacity)
	ghostMax int // ghost capacity (½ of capacity)

	a1, am frameList
	frames []qFrame // one per frame in use

	ghosts    frameList
	ghostPage []PageID // per slot
	ghostFree []int32  // slots not on the ghost list
	ghostOf   []int32  // per page: its newest ghost slot + 1, 0 when none
}

type qFrame struct {
	page      PageID
	probation bool // on a1, not am
}

// NewTwoQ returns a 2Q policy. sizeHint is the buffer capacity; the
// probation target is a quarter of it and the ghost queue half, per the
// original paper's recommendation. It panics if sizeHint < 4.
func NewTwoQ(sizeHint int) Policy {
	if sizeHint < 4 {
		panic("buffer: 2Q needs a size hint ≥ 4")
	}
	return &twoQ{a1Max: sizeHint / 4, ghostMax: sizeHint / 2}
}

func (p *twoQ) Name() string { return "2Q" }

func (p *twoQ) Reset() {
	p.a1.reset()
	p.am.reset()
	p.ghosts.reset()
	for _, pg := range p.ghostPage {
		p.ghostOf[pg] = 0
	}
	p.ghostPage = p.ghostPage[:0]
	p.ghostFree = p.ghostFree[:0]
}

// admit records that frame f holds page pg, on probation or not.
func (p *twoQ) admit(f int32, pg PageID, probation bool) {
	if int(f) == len(p.frames) {
		p.frames = extend(p.frames, int(f)+1)
	}
	p.frames[f] = qFrame{page: pg, probation: probation}
}

func (p *twoQ) Inserted(f int32, pg PageID) {
	if int(pg) < len(p.ghostOf) && p.ghostOf[pg] != 0 {
		// Recently evicted from probation: this is a genuine re-reference.
		s := p.ghostOf[pg] - 1
		p.ghostOf[pg] = 0
		p.ghosts.remove(s)
		p.ghostFree = append(p.ghostFree, s)
		p.admit(f, pg, false)
		p.am.pushFront(f)
		return
	}
	p.admit(f, pg, true)
	p.a1.pushFront(f)
}

// InsertedCold places the page at the probation queue's eviction end.
func (p *twoQ) InsertedCold(f int32, pg PageID) {
	p.admit(f, pg, true)
	p.a1.pushBack(f)
}

func (p *twoQ) Touched(f int32) {
	if p.frames[f].probation {
		// Promotion: probation → protected.
		p.frames[f].probation = false
		p.a1.remove(f)
		p.am.pushFront(f)
		return
	}
	p.am.moveToFront(f)
}

func (p *twoQ) Victim() int32 {
	// Drain probation beyond its target first, then protected LRU.
	if p.a1.len > p.a1Max || p.am.len == 0 {
		if p.a1.len == 0 {
			panic("buffer: 2Q victim of empty policy")
		}
		f := p.a1.popBack()
		p.remember(p.frames[f].page)
		return f
	}
	return p.am.popBack()
}

// remember queues a ghost for pg, dropping the oldest ghost when the queue
// outgrows its target.
func (p *twoQ) remember(pg PageID) {
	var s int32
	if n := len(p.ghostFree); n > 0 {
		s = p.ghostFree[n-1]
		p.ghostFree = p.ghostFree[:n-1]
		p.ghostPage[s] = pg
	} else {
		s = int32(len(p.ghostPage))
		p.ghostPage = extend(p.ghostPage, int(s)+1)
		p.ghostPage[s] = pg
	}
	if need := int(pg) + 1; need > len(p.ghostOf) {
		p.ghostOf = append(p.ghostOf, make([]int32, need-len(p.ghostOf))...)
	}
	p.ghostOf[pg] = s + 1
	p.ghosts.pushFront(s)
	if p.ghosts.len > p.ghostMax {
		old := p.ghosts.popBack()
		p.ghostOf[p.ghostPage[old]] = 0
		p.ghostFree = append(p.ghostFree, old)
	}
}
