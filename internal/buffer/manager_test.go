package buffer

import "testing"

func TestHitMissBasics(t *testing.T) {
	m := New(2, NewLRUK(1))
	if r := m.Access(1, false); r.Hit || len(r.Evicted) != 0 {
		t.Fatalf("first access should miss without eviction: %+v", r)
	}
	if r := m.Access(1, false); !r.Hit {
		t.Fatal("second access should hit")
	}
	m.Access(2, false)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	r := m.Access(3, false)
	if r.Hit || len(r.Evicted) != 1 {
		t.Fatalf("miss on full buffer must evict exactly one: %+v", r)
	}
	if r.Evicted[0].Page != 1 {
		t.Errorf("LRU victim = %d, want 1", r.Evicted[0].Page)
	}
	if m.Hits() != 1 || m.Misses() != 3 || m.Evictions() != 1 {
		t.Errorf("stats h/m/e = %d/%d/%d", m.Hits(), m.Misses(), m.Evictions())
	}
}

func TestDirtyWriteback(t *testing.T) {
	m := New(1, NewLRUK(1))
	m.Access(1, true)
	r := m.Access(2, false)
	if len(r.Evicted) != 1 || !r.Evicted[0].Dirty {
		t.Fatalf("dirty page must be reported on eviction: %+v", r)
	}
	if m.Writebacks() != 1 {
		t.Errorf("writebacks = %d, want 1", m.Writebacks())
	}
	// Clean eviction.
	r = m.Access(3, false)
	if r.Evicted[0].Dirty {
		t.Error("clean page reported dirty")
	}
}

func TestMarkDirty(t *testing.T) {
	m := New(2, NewLRUK(1))
	m.Access(1, false)
	m.Reserve(2)
	if !m.MarkDirty(1) {
		t.Fatal("MarkDirty on resident page failed")
	}
	if m.MarkDirty(99) {
		t.Fatal("MarkDirty on absent page succeeded")
	}
	if m.MarkDirty(2) {
		t.Fatal("MarkDirty on a reserved page succeeded")
	}
	m.Access(3, false) // evicts page 1, the least recently used
	r := m.Access(4, false)
	if len(r.Evicted) != 1 || r.Evicted[0].Page != 2 || r.Evicted[0].Dirty {
		t.Fatalf("reserved page must leave clean: %+v", r.Evicted)
	}
	if m.Writebacks() != 1 {
		t.Errorf("writebacks = %d, want 1 (page 1, marked dirty)", m.Writebacks())
	}
}

func TestInvalidateAll(t *testing.T) {
	m := New(4, NewLRUK(1))
	m.Access(1, true)
	m.Access(2, false)
	m.Access(3, true)
	m.Reserve(4)
	m.InvalidateAll()
	if m.Len() != 0 {
		t.Fatal("buffer not empty after InvalidateAll")
	}
	for p := PageID(1); p <= 4; p++ {
		if m.Contains(p) || m.IsReserved(p) {
			t.Fatalf("page %d still resident after InvalidateAll", p)
		}
	}
	// The buffer must be fully usable afterwards, and the dropped dirty
	// pages are never written back.
	for p := PageID(3); p < 9; p++ {
		if r := m.Access(p, false); r.Hit {
			t.Fatalf("page %d hit after InvalidateAll", p)
		}
	}
	if !m.Contains(8) || m.Len() != 4 || m.Writebacks() != 0 {
		t.Fatalf("buffer broken after InvalidateAll: len %d, writebacks %d", m.Len(), m.Writebacks())
	}
}

func TestReservedFrames(t *testing.T) {
	m := New(2, NewLRUK(1))
	r := m.Reserve(10)
	if r.Hit || len(r.Evicted) != 0 {
		t.Fatalf("first reserve: %+v", r)
	}
	if !m.IsReserved(10) || m.Contains(10) {
		t.Fatal("reserved page state wrong")
	}
	// Reserving again is a no-op.
	if r := m.Reserve(10); !r.Hit {
		t.Fatal("double reserve should report resident")
	}
	// Accessing a reserved page: miss (disk read needed) but no eviction,
	// and the frame becomes loaded.
	r = m.Access(10, false)
	if r.Hit || !r.WasReserved || len(r.Evicted) != 0 {
		t.Fatalf("access on reserved: %+v", r)
	}
	if !m.Contains(10) {
		t.Fatal("page not loaded after access")
	}
	if m.Misses() != 1 {
		t.Errorf("misses = %d, want 1 (reserve itself is not an access)", m.Misses())
	}
}

func TestReserveEvicts(t *testing.T) {
	m := New(2, NewLRUK(1))
	m.Access(1, true)
	m.Access(2, false)
	r := m.Reserve(3)
	if len(r.Evicted) != 1 || r.Evicted[0].Page != 1 || !r.Evicted[0].Dirty {
		t.Fatalf("reserve eviction: %+v", r)
	}
	// Evicting a reserved frame must never report dirty.
	m.Access(4, false) // evicts page 2 (LRU)… order: after reserve, LRU is 2
	r = m.Access(5, false)
	var sawReserved bool
	for _, e := range r.Evicted {
		if e.Page == 3 {
			sawReserved = true
			if e.Dirty {
				t.Error("reserved frame evicted dirty")
			}
		}
	}
	_ = sawReserved // which page goes first depends on policy order; dirtiness is what matters
}

func TestHitRatio(t *testing.T) {
	m := New(8, NewLRUK(1))
	if m.HitRatio() != 0 {
		t.Fatal("hit ratio of untouched buffer should be 0")
	}
	m.Access(1, false)
	m.Access(1, false)
	m.Access(1, false)
	m.Access(2, false)
	if got := m.HitRatio(); got != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", got)
	}
	m.ResetStats()
	if m.Hits() != 0 || m.Misses() != 0 {
		t.Error("ResetStats failed")
	}
}

func TestCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0, NewLRUK(1))
}

func TestNilPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(1, nil)
}
