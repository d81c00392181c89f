package sim

import "testing"

// trace runs a fixed scheduling scenario and records firing order.
func traceScenario(s *Simulation) []int {
	var fired []int
	s.Schedule(2, func() { fired = append(fired, 2) })
	s.Schedule(1, func() { fired = append(fired, 1) })
	s.Schedule(3, func() { fired = append(fired, 3) })
	s.Schedule(1, func() { fired = append(fired, 10) })
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
	// The kept storage holds no action, fired or dropped, for the collector.
	for _, e := range s.heap[:cap(s.heap)] {
		if e.action != nil {
			t.Fatal("Reset kept an action alive in the heap's storage")
		}
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

// TestResourceReset pins Resource.Reset: held tokens, queued waiters, and
// statistics all vanish; the resource then serves grants like new.
func TestResourceReset(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	if !r.Acquire(func() {}) {
		t.Fatal("setup: idle resource did not grant")
	}
	queued := false
	r.Acquire(func() { queued = true }) // must queue
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
	if !r.Acquire(func() {}) || r.InUse() != 1 {
		t.Fatal("reset resource does not grant like a fresh one")
	}
}
