package buffer

import "testing"

func TestColdReservationEvictedFirst(t *testing.T) {
	m := New(3, NewLRUK(1))
	m.SetReserveCold(true)
	m.Access(1, false)
	m.Access(2, false)
	m.Reserve(9) // buffer full: 1, 2 loaded; 9 reserved cold
	r := m.Access(3, false)
	if len(r.Evicted) != 1 || r.Evicted[0].Page != 9 {
		t.Fatalf("cold reserved frame should be the first victim, got %+v", r.Evicted)
	}
}

func TestHotReservationCompetesWithLoaded(t *testing.T) {
	m := New(3, NewLRUK(1))
	// Default: reservations insert hot, so the oldest loaded page loses.
	m.Access(1, false)
	m.Access(2, false)
	m.Reserve(9)
	r := m.Access(3, false)
	if len(r.Evicted) != 1 || r.Evicted[0].Page != 1 {
		t.Fatalf("hot reservation should push out the LRU page 1, got %+v", r.Evicted)
	}
}

func TestColdInsertionAcrossPolicies(t *testing.T) {
	// Every ColdInserter must evict a cold-inserted, never-touched page
	// before a freshly touched one.
	for _, mk := range []func() Policy{
		func() Policy { return NewLRUK(1) },
		func() Policy { return NewLRUK(2) },
		NewFIFO,
		NewClock,
		func() Policy { return NewGClock(2) },
	} {
		p := mk()
		ci, ok := p.(ColdInserter)
		if !ok {
			t.Fatalf("%s: no ColdInserter support", p.Name())
		}
		p.Inserted(0, 10)
		p.Touched(0)
		ci.InsertedCold(1, 20)
		if v := p.Victim(); v != 1 {
			t.Errorf("%s: victim = frame %d, want the cold frame 1", p.Name(), v)
		}
	}
}

func TestTouchRescuesColdReservation(t *testing.T) {
	m := New(3, NewLRUK(1))
	m.SetReserveCold(true)
	m.Reserve(9)
	m.Access(1, false)
	m.Access(9, false) // load the reserved frame: now it is hot
	m.Access(2, false) // buffer full: 9, 1, 2
	r := m.Access(3, false)
	if len(r.Evicted) != 1 || r.Evicted[0].Page != 1 {
		t.Fatalf("touched reservation must not be the victim, got %+v", r.Evicted)
	}
}
