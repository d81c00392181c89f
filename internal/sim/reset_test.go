package sim

import "testing"

// trace runs a fixed scheduling scenario and records firing order.
func traceScenario(s *Simulation) []int {
	var fired []int
	s.Schedule(2, func() { fired = append(fired, 2) })
	s.Schedule(1, func() { fired = append(fired, 1) })
	e := s.Schedule(3, func() { fired = append(fired, 3) })
	s.Schedule(1, func() { fired = append(fired, 10) })
	s.Cancel(e)
	s.Run()
	return fired
}

// TestResetRestoresFreshState pins the Reset contract: a reset simulation
// behaves exactly like a new one — clock at zero, empty calendar, zeroed
// counters, identical event ordering (the seq tiebreak restarts).
func TestResetRestoresFreshState(t *testing.T) {
	s := New()
	want := traceScenario(New())

	// Dirty the simulation thoroughly: pending events survive into Reset.
	for i := 0; i < 50; i++ {
		s.Schedule(float64(i), func() {})
	}
	for i := 0; i <= 10; i++ {
		s.Step()
	}
	s.Reset()

	if s.Now() != 0 || s.Pending() != 0 || s.Scheduled() != 0 || s.Executed() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d scheduled=%d executed=%d",
			s.Now(), s.Pending(), s.Scheduled(), s.Executed())
	}
	got := traceScenario(s)
	if len(got) != len(want) {
		t.Fatalf("firing order after Reset = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing order after Reset = %v, want %v", got, want)
		}
	}
}

// TestResetStaleHandles: handles minted before a Reset must be inert —
// Cancel is a no-op and the predicates report false — not a panic or a
// cancellation of the slot's new occupant.
func TestResetStaleHandles(t *testing.T) {
	s := New()
	stale := s.Schedule(5, func() {})
	s.Reset()
	if stale.Pending() {
		t.Fatal("stale handle reports pending after Reset")
	}
	s.Cancel(stale) // must be a no-op

	fired := 0
	fresh := s.Schedule(1, func() { fired++ })
	s.Cancel(stale) // stale slot now reallocated; generation check must protect it
	if !fresh.Pending() {
		t.Fatal("cancelling a stale handle hit the recycled slot's new occupant")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// TestResourceReset pins Resource.Reset: held tokens, queued waiters, and
// statistics all vanish; the resource then serves grants like new.
func TestResourceReset(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	r.Request(func() {}) // holds the token
	queued := false
	r.Request(func() { queued = true }) // must queue
	if r.InUse() != 1 || r.QueueLen() != 1 {
		t.Fatalf("setup: inUse=%d queue=%d", r.InUse(), r.QueueLen())
	}
	s.Schedule(3, func() {})
	s.Run() // accumulate some busy integral
	r.Reset()
	s.Reset()
	if r.InUse() != 0 || r.QueueLen() != 0 || r.Grants() != 0 {
		t.Fatalf("after Reset: inUse=%d queue=%d grants=%d", r.InUse(), r.QueueLen(), r.Grants())
	}
	if queued {
		t.Fatal("queued waiter granted across Reset")
	}
	if u := r.Utilization(); u != 0 {
		t.Fatalf("utilization after Reset = %v, want 0", u)
	}
	granted := false
	r.Request(func() { granted = true })
	if !granted || r.InUse() != 1 {
		t.Fatal("reset resource does not grant like a fresh one")
	}
}
