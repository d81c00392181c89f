package buffer

import (
	"testing"

	"repro/internal/rng"
)

// runSequence replays accesses on a capacity-c buffer and returns the
// eviction order.
func runSequence(t *testing.T, p Policy, capacity int, accesses []PageID) []PageID {
	t.Helper()
	m := New(capacity, p)
	var evicted []PageID
	for _, a := range accesses {
		r := m.Access(a, false)
		for _, e := range r.Evicted {
			evicted = append(evicted, e.Page)
		}
	}
	return evicted
}

func pagesEqual(a []PageID, b ...PageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLRUEvictionOrder(t *testing.T) {
	// Capacity 3: after 1,2,3 touch 1 → LRU order 2,3; access 4 evicts 2.
	got := runSequence(t, NewLRUK(1), 3, []PageID{1, 2, 3, 1, 4, 5})
	if !pagesEqual(got, 2, 3) {
		t.Errorf("LRU evictions = %v, want [2 3]", got)
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	// Touching 1 must not save it under FIFO.
	got := runSequence(t, NewFIFO(), 3, []PageID{1, 2, 3, 1, 1, 1, 4})
	if !pagesEqual(got, 1) {
		t.Errorf("FIFO evictions = %v, want [1]", got)
	}
}

func TestMRUEvictsNewest(t *testing.T) {
	got := runSequence(t, NewMRU(), 3, []PageID{1, 2, 3, 4})
	if !pagesEqual(got, 3) {
		t.Errorf("MRU evictions = %v, want [3]", got)
	}
}

func TestLFUEvictsColdest(t *testing.T) {
	// 1 touched 3×, 2 touched 2×, 3 once → evict 3.
	got := runSequence(t, NewLFU(), 3, []PageID{1, 2, 3, 1, 1, 2, 4})
	if !pagesEqual(got, 3) {
		t.Errorf("LFU evictions = %v, want [3]", got)
	}
}

func TestLFUTieBreaksOldest(t *testing.T) {
	// All counts equal → evict the earliest inserted (1).
	got := runSequence(t, NewLFU(), 3, []PageID{1, 2, 3, 4})
	if !pagesEqual(got, 1) {
		t.Errorf("LFU tie evictions = %v, want [1]", got)
	}
}

func TestClockSecondChance(t *testing.T) {
	// Capacity 3, insert 1,2,3 (all ref=1). Access 4: hand sweeps clearing
	// refs, evicts the first page it finds clear — 1 (oldest in sweep
	// order). Then touch 2 and access 5: 3 has clear ref, 2 was re-armed.
	p := NewClock()
	m := New(3, p)
	m.Access(1, false)
	m.Access(2, false)
	m.Access(3, false)
	r := m.Access(4, false)
	if len(r.Evicted) != 1 || r.Evicted[0].Page != 1 {
		t.Fatalf("CLOCK first eviction = %+v, want page 1", r.Evicted)
	}
	m.Access(2, false) // re-arm 2's reference bit
	r = m.Access(5, false)
	if len(r.Evicted) != 1 {
		t.Fatalf("no eviction: %+v", r)
	}
	if r.Evicted[0].Page == 2 {
		t.Errorf("CLOCK evicted the re-referenced page 2")
	}
}

func TestGClockNeedsMultipleSweeps(t *testing.T) {
	// GCLOCK weight 2 still evicts exactly one page per miss and never an
	// over-capacity set.
	m := New(2, NewGClock(2))
	m.Access(1, false)
	m.Access(2, false)
	r := m.Access(3, false)
	if len(r.Evicted) != 1 {
		t.Fatalf("GCLOCK evictions = %+v", r.Evicted)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestLRU2PrefersOnceReferencedVictims(t *testing.T) {
	// LRU-2: pages referenced only once have infinite backward 2-distance
	// and are evicted before a page referenced twice, even if the latter is
	// older.
	p := NewLRUK(2)
	m := New(3, p)
	m.Access(1, false)
	m.Access(1, false) // 1 has two references
	m.Access(2, false)
	m.Access(3, false)
	r := m.Access(4, false)
	if len(r.Evicted) != 1 || r.Evicted[0].Page != 2 {
		t.Fatalf("LRU-2 victim = %+v, want page 2 (oldest once-referenced)", r.Evicted)
	}
}

func TestLRU2FallsBackToKDistance(t *testing.T) {
	// All pages referenced twice: victim is the one with the oldest 2nd
	// most recent reference.
	p := NewLRUK(2)
	m := New(2, p)
	m.Access(1, false)
	m.Access(2, false)
	m.Access(1, false)
	m.Access(2, false)
	// 1's 2nd-most-recent = t1, 2's = t2 > t1 → evict 1.
	r := m.Access(3, false)
	if len(r.Evicted) != 1 || r.Evicted[0].Page != 1 {
		t.Fatalf("LRU-2 victim = %+v, want page 1", r.Evicted)
	}
}

func TestLRU2ColdTies(t *testing.T) {
	// Cold insertions are stamped 0. Among frames with fewer than K
	// references, ties go to the most recently inserted frame; a cold frame
	// touched up to K references is finite and waits for every infinite one.
	p := NewLRUK(2)
	ci := p.(ColdInserter)
	victim := func(want int32) {
		t.Helper()
		if v := p.Victim(); v != want {
			t.Fatalf("victim = frame %d, want %d", v, want)
		}
	}
	ci.InsertedCold(0, 10)
	ci.InsertedCold(1, 11)
	ci.InsertedCold(2, 12)
	p.Touched(0) // frame 0: references {t, 0}, so its K-th reference is 0
	victim(2)    // frames 1 and 2 tie at 0; 2 is the newer
	ci.InsertedCold(2, 13)
	p.Inserted(3, 14)
	victim(2) // frames 1 and 2 tie at 0 again; 2 is the newer
	p.Inserted(2, 15)
	victim(1) // the last untouched cold frame
	p.Inserted(1, 16)
	for _, f := range []int32{1, 2, 3} {
		p.Touched(f)
	}
	victim(0) // every frame is finite now; frame 0's K-th reference is 0
}

func TestRandomPolicyDeterministicAndValid(t *testing.T) {
	mkSeq := func() []PageID {
		src := rng.New(99)
		m := New(4, NewRandom(src))
		var ev []PageID
		for i := 0; i < 200; i++ {
			r := m.Access(PageID(i%13), false)
			for _, e := range r.Evicted {
				ev = append(ev, e.Page)
			}
		}
		return ev
	}
	a, b := mkSeq(), mkSeq()
	if !pagesEqual(a, b...) {
		t.Fatal("RANDOM policy not deterministic for equal seeds")
	}
}

func TestNewPolicyFactory(t *testing.T) {
	src := rng.New(1)
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, src, 8)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
			continue
		}
		if p == nil {
			t.Errorf("NewPolicy(%q) returned nil", name)
		}
	}
	if p, err := NewPolicy("lru-3", nil, 8); err != nil || p.Name() != "LRU-3" {
		t.Errorf("lru-3: %v %v", p, err)
	}
	if _, err := NewPolicy("NOPE", nil, 8); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewPolicy("RANDOM", nil, 8); err == nil {
		t.Error("RANDOM without source accepted")
	}
	if _, err := NewPolicy("LRU-0", nil, 8); err == nil {
		t.Error("LRU-0 accepted")
	}
}

func TestVictimOnEmptyPanics(t *testing.T) {
	for _, mk := range []func() Policy{
		func() Policy { return NewLRUK(1) },
		func() Policy { return NewLRUK(2) },
		NewFIFO, NewLFU, NewMRU, NewClock,
		func() Policy { return NewGClock(2) },
		func() Policy { return NewRandom(rng.New(1)) },
		func() Policy { return NewTwoQ(4) },
	} {
		p := mk()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Victim on empty did not panic", p.Name())
				}
			}()
			p.Victim()
		}()
	}
}

// BenchmarkPolicySteadyState replays a fixed trace of 16,384 accesses and
// cold reservations over 2,048 pages on a warmed 256-frame Manager, one
// sub-benchmark per PGREP name; an op is one replay. Every policy keeps its
// state in frame-indexed slices that the warm-up grows, so a replay must
// report 0 B/op and 0 allocs/op (CI gates this).
func BenchmarkPolicySteadyState(b *testing.B) {
	const (
		frames = 256
		pages  = 2048
		ops    = 16384
	)
	src := rng.New(16)
	trace := make([]PageID, ops)
	for i := range trace {
		if src.Intn(5) == 0 {
			trace[i] = PageID(src.Intn(pages))
		} else {
			trace[i] = PageID(src.Intn(pages / 4))
		}
	}
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			pol, err := NewPolicy(name, rng.New(1), frames)
			if err != nil {
				b.Fatal(err)
			}
			m := New(frames, pol)
			m.SetReserveCold(true)
			replay := func() {
				for i, p := range trace {
					if i%4 == 3 {
						m.Reserve(p)
					} else {
						m.Access(p, i%8 == 0)
					}
				}
			}
			replay()
			replay()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay()
			}
		})
	}
}
