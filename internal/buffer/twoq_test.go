package buffer

import "testing"

func TestTwoQPromotionProtectsHotPages(t *testing.T) {
	m := New(8, NewTwoQ(8))
	// Hot pages: referenced twice → promoted to Am.
	m.Access(1, false)
	m.Access(1, false)
	m.Access(2, false)
	m.Access(2, false)
	// A long one-touch scan must not evict the hot pages.
	for pg := PageID(100); pg < 130; pg++ {
		m.Access(pg, false)
	}
	if !m.Contains(1) || !m.Contains(2) {
		t.Fatal("2Q let a one-touch scan flush the hot set")
	}
}

func TestTwoQScanResistanceBeatsLRU(t *testing.T) {
	run := func(p Policy) float64 {
		m := New(10, p)
		for round := 0; round < 60; round++ {
			// Two hot pages plus a 12-page scan.
			m.Access(0, false)
			m.Access(1, false)
			for pg := PageID(10); pg < 22; pg++ {
				m.Access(pg, false)
			}
		}
		return m.HitRatio()
	}
	lru := run(NewLRUK(1))
	twoq := run(NewTwoQ(10))
	if twoq <= lru {
		t.Errorf("2Q hit ratio %v should beat LRU %v under scan+hot mix", twoq, lru)
	}
}

func TestTwoQEvictsProbationFirst(t *testing.T) {
	m := New(4, NewTwoQ(4)) // probation target 1
	m.Access(1, false)
	m.Access(1, false) // 1 → protected
	m.Access(2, false)
	m.Access(3, false)
	m.Access(4, false)
	r := m.Access(5, false)
	if len(r.Evicted) != 1 {
		t.Fatalf("evictions: %+v", r.Evicted)
	}
	if r.Evicted[0].Page == 1 {
		t.Fatal("2Q evicted the protected page while probation was over target")
	}
}

func TestTwoQInvariantsUnderStress(t *testing.T) {
	m := New(16, NewTwoQ(16))
	for i := 0; i < 5000; i++ {
		pg := PageID((i * 7) % 61)
		m.Access(pg, i%5 == 0)
		if m.Len() > m.Capacity() {
			t.Fatal("over capacity")
		}
		if !m.Contains(pg) {
			t.Fatal("accessed page absent")
		}
	}
}

func TestTwoQColdInsert(t *testing.T) {
	p := NewTwoQ(8).(ColdInserter)
	p.(Policy).Inserted(0, 10)
	p.InsertedCold(1, 20)
	if v := p.(Policy).Victim(); v != 1 {
		t.Fatalf("cold-inserted frame not first victim: %d", v)
	}
}

func TestTwoQFactory(t *testing.T) {
	p, err := NewPolicy("2q", nil, 100)
	if err != nil || p.Name() != "2Q" {
		t.Fatalf("factory: %v %v", p, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("tiny 2Q accepted")
		}
	}()
	NewTwoQ(2)
}
