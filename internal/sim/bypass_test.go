package sim

import (
	"testing"
)

// newHeapOnly returns a simulation whose every event goes through the
// heap: the dispatch path the head-slot register must match.
func newHeapOnly() *Simulation {
	s := New()
	s.noBypass = true
	return s
}

// bypassOnOff runs build twice — fast path on (the default) and forced off
// (newHeapOnly) — and fails unless both produced the exact same firing
// record. This is the head-slot register's determinism contract: the
// register only ever holds an event strictly earlier than everything in
// the heap, so dispatch order cannot differ.
func bypassOnOff(t *testing.T, run func(s *Simulation) []fired) {
	t.Helper()
	on := run(New())
	off := run(newHeapOnly())
	if len(on) == 0 {
		t.Fatal("scenario fired nothing")
	}
	if len(on) != len(off) {
		t.Fatalf("bypass on fired %d events, off %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("firing %d differs: on=%+v off=%+v", i, on[i], off[i])
		}
	}
}

// runCancelScenario drives mid-run cancellation: actions cancel
// pseudo-random handles while the calendar is live, so victims are hit
// while sitting in the heap and in the head-slot register. Every run sees
// identical state at every action, so the cancel pattern — and therefore
// the firing record — must match exactly across dispatch paths.
func runCancelScenario(s *Simulation, n int, seed lcg) []fired {
	rng := seed
	var record []fired
	handles := make([]Event, 0, 4*n)
	var schedule func(depth int)
	schedule = func(depth int) {
		myID := len(handles)
		var delay Time
		switch r := rng.float(); {
		case r < 0.3:
			delay = 0 // same-time chains
		case r < 0.6:
			delay = rng.float() * 0.5
		case r < 0.9:
			delay = rng.float() * 300
		default:
			delay = 1e6 + rng.float()*1e9
		}
		d := depth
		h := s.Schedule(delay, func() {
			record = append(record, fired{id: myID, now: s.Now()})
			if len(handles) > 0 && rng.float() < 0.4 {
				s.Cancel(handles[int(rng.next())%len(handles)])
			}
			if d < 3 && rng.float() < 0.35 {
				schedule(d + 1)
			}
		})
		handles = append(handles, h)
	}
	for i := 0; i < n; i++ {
		schedule(0)
	}
	s.Run()
	return record
}

// TestBypassLockstepEquivalence replays the randomized runScenario — wide
// delay spectrum, nested scheduling from actions, upfront cancels — with
// the fast path on and off.
func TestBypassLockstepEquivalence(t *testing.T) {
	bypassOnOff(t, func(s *Simulation) []fired {
		return runScenario(s, 800, lcg(20260808))
	})
}

// TestBypassCancelEquivalence replays the mid-run cancel scenario — 30%
// zero delays chain through the register, and actions cancel pseudo-random
// handles mid-run, so victims are hit while register-resident — with the
// fast path on and off.
func TestBypassCancelEquivalence(t *testing.T) {
	bypassOnOff(t, func(s *Simulation) []fired {
		return runCancelScenario(s, 400, lcg(808))
	})
}

// TestBypassChainEquivalence drives the transaction-pipeline shape the
// register exists for — every action schedules its continuation a small
// strictly-earlier-than-everything delay ahead — interleaved with a
// standing far-future population so the heap is never empty, and
// checks on/off equivalence plus a near-total hit rate.
func TestBypassChainEquivalence(t *testing.T) {
	chain := func(s *Simulation) []fired {
		var record []fired
		for i := 0; i < 8; i++ {
			id := 1000 + i
			s.Schedule(1e6+Time(i), func() { record = append(record, fired{id: id, now: s.Now()}) })
		}
		steps := 0
		var cont func()
		cont = func() {
			record = append(record, fired{id: steps, now: s.Now()})
			steps++
			if steps < 5000 {
				s.Schedule(0.5, cont)
			}
		}
		s.Schedule(0.5, cont)
		s.Run()
		return record
	}
	bypassOnOff(t, chain)

	s := New()
	chain(s)
	if r := s.BypassRate(); r < 0.99 {
		t.Fatalf("chain bypass rate = %.3f, want ≥ 0.99", r)
	}
	s = newHeapOnly()
	chain(s)
	if r := s.BypassRate(); r != 0 {
		t.Fatalf("disabled fast path reported bypass rate %.3f", r)
	}
}

// TestBypassStepHaltEquivalence drives the halting and stepping paths —
// Step mid-calendar, a Halt honored through a stop check, then a resumed
// Run — with the fast path on and off.
func TestBypassStepHaltEquivalence(t *testing.T) {
	bypassOnOff(t, func(s *Simulation) []fired {
		rng := lcg(99)
		var record []fired
		haltOnce := false
		for i := 0; i < 300; i++ {
			id := i
			s.Schedule(rng.float()*50, func() {
				record = append(record, fired{id: id, now: s.Now()})
				if len(record) >= 150 && !haltOnce {
					haltOnce = true
					s.Halt()
				}
				if rng.float() < 0.4 {
					s.Schedule(rng.float()*0.2, func() {
						record = append(record, fired{id: -id, now: s.Now()})
					})
				}
			})
		}
		for i := 0; i < 50; i++ {
			s.Step()
		}
		s.SetStopCheck(func() bool { return false })
		s.Run()
		if !s.Halted() {
			t.Fatal("run did not halt")
		}
		s.SetStopCheck(nil)
		s.Run()
		return record
	})
}

// TestBypassRegisterCancel pins Cancel against a register-resident event
// directly: the register occupant is cancelled in O(1) through its
// generation handle, the heap's events are untouched, and the register
// refills on the next eligible Schedule.
func TestBypassRegisterCancel(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(100, func() { order = append(order, 1) })
	// Strictly earlier than the heap root → parks in the register.
	near := s.Schedule(1, func() { order = append(order, 2) })
	if !near.Pending() {
		t.Fatal("register-resident event not Pending")
	}
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	s.Cancel(near)
	if near.Pending() {
		t.Fatal("cancelled register event still Pending")
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
	s.Cancel(near) // double-cancel through a stale handle is a no-op
	// The register is free again: a new strictly-earlier event parks and
	// fires first.
	s.Schedule(2, func() { order = append(order, 3) })
	s.Run()
	if len(order) != 2 || order[0] != 3 || order[1] != 1 {
		t.Fatalf("firing order %v, want [3 1]", order)
	}
	if s.Bypassed() == 0 {
		t.Fatal("no bypass recorded")
	}
}

// TestBypassDisplacement pins the demotion path: a parked occupant is
// displaced by a strictly earlier arrival and must fall back into the
// heap without losing its slot handle or its turn.
func TestBypassDisplacement(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(100, func() { order = append(order, 1) })
	mid := s.Schedule(10, func() { order = append(order, 2) }) // parks
	s.Schedule(1, func() { order = append(order, 3) })         // displaces mid
	if !mid.Pending() {
		t.Fatal("demoted event lost its handle")
	}
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	s.Run()
	want := []int{3, 2, 1}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestBypassTiesRouteToCalendar pins the strict-inequality rule: an event
// at exactly the heap-root time must NOT bypass (same-time FIFO is the
// heap's job), so a same-time chain keeps scheduling order.
func TestBypassTiesRouteToCalendar(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 50; i++ {
		id := i
		s.Schedule(5, func() { order = append(order, id) })
	}
	if s.Bypassed() != 0 {
		t.Fatal("same-time events must not occupy the register")
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("FIFO violated at %d: got %d", i, got)
		}
	}
}

// TestBypassReset checks Reset clears the register and the hit counter so
// a recycled simulation behaves like a fresh one.
func TestBypassReset(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Schedule(1, func() {}) // parks
	s.Reset()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after Reset = %d, want 0", got)
	}
	if s.Bypassed() != 0 || s.BypassRate() != 0 {
		t.Fatalf("Reset kept bypass counters: %d / %v", s.Bypassed(), s.BypassRate())
	}
	fired := 0
	s.Schedule(1, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("recycled simulation fired %d events, want 1", fired)
	}
}
