package sim

import "testing"

// TestStopCheckHaltsRun: a self-rescheduling event chain would run forever;
// a stop check that trips after enough events must halt Run at a
// StopCheckInterval boundary and mark the simulation Halted.
func TestStopCheckHaltsRun(t *testing.T) {
	s := New()
	var reschedule func()
	reschedule = func() { s.Schedule(1, reschedule) }
	s.Schedule(1, reschedule)

	polls := 0
	s.SetStopCheck(func() bool {
		polls++
		return polls >= 2
	})
	s.Run()

	if !s.Halted() {
		t.Fatal("Run returned without Halted() on an unbounded event chain")
	}
	if polls != 2 {
		t.Fatalf("stop check polled %d times, want 2", polls)
	}
	if want := uint64(2 * StopCheckInterval); s.Executed() != want {
		t.Fatalf("halted after %d events, want %d (poll every StopCheckInterval)", s.Executed(), want)
	}
}

// TestHaltStopsBeforeNextEvent: a halted simulation runs no further event,
// even with no stop check installed, until SetStopCheck or Reset clears
// the flag.
func TestHaltStopsBeforeNextEvent(t *testing.T) {
	s := New()
	ran := 0
	s.Schedule(1, func() { ran++ })
	s.Schedule(2, func() { ran++ })
	s.halted = true
	s.Run()
	if ran != 0 || !s.Halted() {
		t.Fatalf("halted simulation executed %d events (halted=%v)", ran, s.Halted())
	}
	s.SetStopCheck(nil)
	s.Run()
	if ran != 2 || s.Halted() {
		t.Fatalf("after SetStopCheck cleared the halt: ran %d events (halted=%v), want 2", ran, s.Halted())
	}
}

// TestResetClearsHalt: Reset must clear both the halted flag and the stop
// check, so a recycled replication context never inherits a stale deadline
// — and a reset-after-halt simulation must replay work normally.
func TestResetClearsHalt(t *testing.T) {
	s := New()
	s.SetStopCheck(func() bool { return true })
	s.Schedule(1, func() {})
	s.halted = true
	s.Run()
	if !s.Halted() {
		t.Fatal("precondition: simulation should be halted")
	}

	s.Reset()
	if s.Halted() {
		t.Fatal("Reset left the simulation halted")
	}
	ran := 0
	for i := 0; i < 3*StopCheckInterval; i++ {
		s.Schedule(Time(i), func() { ran++ })
	}
	s.Run()
	if ran != 3*StopCheckInterval || s.Halted() {
		t.Fatalf("after Reset, ran %d events (halted=%v); stale stop check survived", ran, s.Halted())
	}
}

// TestStopCheckNeverTrips: with a never-tripping check, Run drains the
// calendar exactly like an unhooked run.
func TestStopCheckNeverTrips(t *testing.T) {
	s := New()
	ran := 0
	for i := 0; i < 100; i++ {
		s.Schedule(Time(i), func() { ran++ })
	}
	s.SetStopCheck(func() bool { return false })
	s.Run()
	if ran != 100 || s.Halted() {
		t.Fatalf("ran %d/100 events, halted=%v", ran, s.Halted())
	}
}

// TestHaltInsideActionStopsRun: a halt raised inside an action, as
// Advance raises one when its poll trips, stops a hook-free Run before its
// next event.
func TestHaltInsideActionStopsRun(t *testing.T) {
	s := New()
	ran := 0
	s.Schedule(1, func() { s.halted = true })
	s.Schedule(2, func() { ran++ })
	s.Run()
	if ran != 0 || !s.Halted() {
		t.Fatalf("the event after an action's halt ran %d times (halted=%v)", ran, s.Halted())
	}
}
