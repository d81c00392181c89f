package sim

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator for scenario construction, so the
// equivalence tests are reproducible without seeding math/rand.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 11
}

func (l *lcg) float() float64 { return float64(l.next()) / float64(1<<53) }

// fired is one observed execution, captured identically on both calendars.
type fired struct {
	id  int
	now Time
}

// runScenario drives one deterministic scenario — schedules with a wide
// delay spectrum (sub-tick to overflow-tier), nested re-scheduling from
// actions, and interleaved cancellations — and returns the firing record.
func runScenario(s *Simulation, n int, seed lcg) []fired {
	rng := seed
	var record []fired
	var handles []Event
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		myID := id
		id++
		// Delay spectrum: 40% sub-tick, 30% a few ticks, 20% mid-level,
		// 10% far future (top level / overflow at small ticks).
		var delay Time
		switch r := rng.float(); {
		case r < 0.4:
			delay = rng.float() * 0.9
		case r < 0.7:
			delay = rng.float() * 40
		case r < 0.9:
			delay = rng.float() * 1e5
		default:
			delay = 1e7 + rng.float()*1e10
		}
		d := depth
		h := s.Schedule(delay, func() {
			record = append(record, fired{id: myID, now: s.Now()})
			if d < 2 && rng.float() < 0.3 {
				schedule(d + 1)
			}
		})
		handles = append(handles, h)
	}
	for i := 0; i < n; i++ {
		schedule(0)
	}
	// Cancel a deterministic subset before anything runs.
	for i := 3; i < len(handles); i += 7 {
		s.Cancel(handles[i])
	}
	s.Run()
	return record
}

// checkSameRecord fails the test unless both calendars produced the exact
// same firing sequence (ids and times, bit-identical).
func checkSameRecord(t *testing.T, heap, wheel []fired) {
	t.Helper()
	if len(heap) != len(wheel) {
		t.Fatalf("firing counts differ: heap=%d wheel=%d", len(heap), len(wheel))
	}
	for i := range heap {
		if heap[i] != wheel[i] {
			t.Fatalf("firing %d differs: heap=%+v wheel=%+v", i, heap[i], wheel[i])
		}
	}
}

// TestWheelLockstepEquivalence proves bit-identical firing order by running
// the same scenario — wide delay spectrum, nested scheduling, cancels —
// on the heap and the wheel and comparing the full execution record.
func TestWheelLockstepEquivalence(t *testing.T) {
	for _, n := range []int{1, 17, 300, 2000} {
		h := runScenario(New(WithCalendar(HeapCalendar)), n, lcg(12345))
		w := runScenario(New(WithCalendar(WheelCalendar)), n, lcg(12345))
		checkSameRecord(t, h, w)
		if len(h) == 0 {
			t.Fatalf("n=%d: scenario fired nothing", n)
		}
	}
}

// TestWheelLockstepTinyTick shrinks the tick so mid-range delays land in
// the top level and overflow tier, exercising cascades and migration.
func TestWheelLockstepTinyTick(t *testing.T) {
	h := runScenario(New(WithCalendar(HeapCalendar)), 500, lcg(777))
	w := runScenario(New(WithCalendar(WheelCalendar), WithWheelTick(1e-4)), 500, lcg(777))
	checkSameRecord(t, h, w)
}

// TestWheelLockstepCoarseTick pushes everything sub-tick so the ready heap
// carries the whole population — the wheel must degrade to exactly the
// heap, not merely approximately.
func TestWheelLockstepCoarseTick(t *testing.T) {
	h := runScenario(New(WithCalendar(HeapCalendar)), 500, lcg(4242))
	w := runScenario(New(WithCalendar(WheelCalendar), WithWheelTick(1e12)), 500, lcg(4242))
	checkSameRecord(t, h, w)
}

// TestWheelCancelEquivalence replays the mid-run cancel scenario on both
// calendars: victims are cancelled from actions while sitting in wheel
// buckets, the overflow tier, the ready heap, and the register, and the
// firing record must still match the heap exactly.
func TestWheelCancelEquivalence(t *testing.T) {
	h := runCancelScenario(New(WithCalendar(HeapCalendar)), 400, lcg(555))
	w := runCancelScenario(New(WithCalendar(WheelCalendar)), 400, lcg(555))
	if len(h) == 0 {
		t.Fatal("cancel scenario fired nothing")
	}
	checkSameRecord(t, h, w)
}

// TestWheelStepRunUntil drives both calendars through the stepping paths —
// Step, RunUntil mid-calendar, then Run — and compares the firing records.
func TestWheelStepRunUntil(t *testing.T) {
	drive := func(s *Simulation) []fired {
		rng := lcg(77)
		var record []fired
		for i := 0; i < 200; i++ {
			id := i
			s.Schedule(rng.float()*100, func() { record = append(record, fired{id: id, now: s.Now()}) })
		}
		for i := 0; i < 25; i++ {
			s.Step()
		}
		s.RunUntil(60)
		if s.Now() != 60 {
			t.Fatalf("RunUntil left clock at %v", s.Now())
		}
		s.Run()
		return record
	}
	checkSameRecord(t, drive(New(WithCalendar(HeapCalendar))), drive(New(WithCalendar(WheelCalendar))))
}

// TestWheelSameTimeFIFO checks the seq tie-break survives bucket transit:
// equal-time events must fire in scheduling order.
func TestWheelSameTimeFIFO(t *testing.T) {
	s := New(WithCalendar(WheelCalendar))
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(5000, func() { order = append(order, i) }) // one far tick, one bucket
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("FIFO violated at %d: got %d", i, got)
		}
	}
}

// TestWheelRunUntil checks horizon semantics when pending events still sit
// in wheel buckets: events past the horizon stay, the clock advances.
func TestWheelRunUntil(t *testing.T) {
	s := New(WithCalendar(WheelCalendar))
	var ran []Time
	for _, at := range []Time{0.5, 300, 70000, 5e9} {
		at := at
		s.ScheduleAt(at, func() { ran = append(ran, at) })
	}
	s.RunUntil(1000)
	if len(ran) != 2 || s.Now() != 1000 || s.Pending() != 2 {
		t.Fatalf("after RunUntil(1000): ran=%v now=%v pending=%d", ran, s.Now(), s.Pending())
	}
	s.Run()
	if len(ran) != 4 || s.Now() != 5e9 || s.Pending() != 0 {
		t.Fatalf("after Run: ran=%v now=%v pending=%d", ran, s.Now(), s.Pending())
	}
}

// TestWheelOverflowCancel cancels events parked in the overflow tier —
// including the one holding the overflow minimum — and checks the calendar
// recovers: remaining events fire in order and counters reconcile.
func TestWheelOverflowCancel(t *testing.T) {
	s := New(WithCalendar(WheelCalendar), WithWheelTick(1e-3))
	// With a 1 µs tick the wheel horizon is 2^32 µs ≈ 4.3e6 ms: everything
	// at 1e7 ms and beyond lands in the overflow tier.
	var ran []Time
	var hs []Event
	for i := 0; i < 50; i++ {
		at := Time(1e7 + float64(i)*1e6)
		hs = append(hs, s.ScheduleAt(at, func() { ran = append(ran, at) }))
	}
	if got := s.Pending(); got != 50 {
		t.Fatalf("pending=%d want 50", got)
	}
	s.Cancel(hs[0]) // the overflow minimum
	s.Cancel(hs[7])
	s.Cancel(hs[7]) // double-cancel is a no-op
	if got := s.Pending(); got != 48 {
		t.Fatalf("after cancels pending=%d want 48", got)
	}
	if !hs[0].Cancelled() || hs[0].Pending() {
		t.Fatal("cancelled overflow handle should report Cancelled, not Pending")
	}
	s.Run()
	if len(ran) != 48 {
		t.Fatalf("executed %d events, want 48", len(ran))
	}
	for i := 1; i < len(ran); i++ {
		if ran[i] <= ran[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, ran[i], ran[i-1])
		}
	}
	if s.Executed() != 48 || s.Scheduled() != 50 {
		t.Fatalf("counters executed=%d scheduled=%d", s.Executed(), s.Scheduled())
	}
}

// TestWheelStaleHandles mirrors the heap's generation discipline on the
// wheel: handles from before a Reset, or whose slot has been recycled, are
// inert for Cancel/Pending/Cancelled.
func TestWheelStaleHandles(t *testing.T) {
	s := New(WithCalendar(WheelCalendar))
	h := s.Schedule(5000, func() {})
	s.Reset()
	// Reset invalidates handles the way a cancellation does (same as the
	// heap calendar): not pending, reported as cancelled until recycled.
	if h.Pending() || !h.Cancelled() {
		t.Fatal("pre-Reset handle should read as cancelled, not pending")
	}
	s.Cancel(h) // must not disturb the fresh calendar
	ran := 0
	h2 := s.Schedule(7000, func() { ran++ })
	s.Cancel(h) // stale again, now that the slot is reoccupied
	if !h2.Pending() {
		t.Fatal("live handle lost to a stale Cancel")
	}
	s.Run()
	if ran != 1 || s.Executed() != 1 {
		t.Fatalf("ran=%d executed=%d, want 1 and 1", ran, s.Executed())
	}
}

// TestWheelResetReuse checks a reset wheel replays a scenario with zero
// allocations: buckets, arena, free list, and ready heap are all retained.
func TestWheelResetReuse(t *testing.T) {
	s := New(WithCalendar(WheelCalendar))
	cycle := func() {
		for i := 0; i < 256; i++ {
			s.Schedule(Time(i)*37.5, func() {})
		}
		h := s.Schedule(1e9, func() {}) // overflow-tier resident
		s.Cancel(h)
		s.Run()
		s.Reset()
	}
	cycle() // warm storage
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("reset wheel reuse allocates %v/op, want 0", allocs)
	}
	if s.Calendar() != WheelCalendar {
		t.Fatal("Reset must keep the wheel calendar")
	}
}

// TestWheelGrowPreSizes checks a grown wheel calendar absorbs its hinted
// population without allocating.
func TestWheelGrowPreSizes(t *testing.T) {
	s := New(WithCalendar(WheelCalendar))
	const n = 10000
	s.Grow(n)
	fill := func() {
		for i := 0; i < n; i++ {
			s.Schedule(Time(i%977)*13.7, func() {})
		}
		s.Run()
		s.Reset()
	}
	fill()
	if allocs := testing.AllocsPerRun(5, fill); allocs != 0 {
		t.Fatalf("grown wheel allocates %v/op, want 0", allocs)
	}
}

// TestWheelAutoSwitch checks the Grow-hint heuristic: a large hint on an
// empty AutoCalendar switches to the wheel; small hints, pinned-heap
// simulations, and non-empty calendars never switch.
func TestWheelAutoSwitch(t *testing.T) {
	s := New()
	if s.Calendar() != AutoCalendar {
		t.Fatalf("fresh default calendar = %v, want auto", s.Calendar())
	}
	s.Grow(WheelAutoThreshold - 1)
	if s.Calendar() != AutoCalendar {
		t.Fatal("small hint must not switch")
	}
	s.Grow(WheelAutoThreshold)
	if s.Calendar() != WheelCalendar {
		t.Fatal("threshold hint on empty calendar must switch to the wheel")
	}

	pinned := New(WithCalendar(HeapCalendar))
	pinned.Grow(1 << 20)
	if pinned.Calendar() != HeapCalendar {
		t.Fatal("pinned heap must never switch")
	}

	busy := New()
	busy.Schedule(1, func() {})
	busy.Grow(1 << 20)
	if busy.Calendar() != AutoCalendar {
		t.Fatal("non-empty calendar must not switch mid-flight")
	}
}

// TestWheelPeakPending checks the high-water mark on both calendars.
func TestWheelPeakPending(t *testing.T) {
	for _, kind := range []CalendarKind{HeapCalendar, WheelCalendar} {
		s := New(WithCalendar(kind))
		for i := 0; i < 10; i++ {
			s.Schedule(Time(i)*1000, func() {})
		}
		s.Run()
		if s.PeakPending() != 10 {
			t.Fatalf("%v: peak=%d want 10", kind, s.PeakPending())
		}
		s.Reset()
		if s.PeakPending() != 0 {
			t.Fatalf("%v: peak survives Reset", kind)
		}
	}
}

// TestWheelHugeTimes checks times beyond the tick cap (including +Inf)
// still fire in exact order through the capped overflow tick.
func TestWheelHugeTimes(t *testing.T) {
	s := New(WithCalendar(WheelCalendar))
	var order []int
	s.ScheduleAt(math.Inf(1), func() { order = append(order, 3) })
	s.ScheduleAt(1e300, func() { order = append(order, 2) })
	s.ScheduleAt(1e18, func() { order = append(order, 1) })
	s.ScheduleAt(5, func() { order = append(order, 0) })
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("huge-time order %v", order)
		}
	}
}

// TestWheelOptionValidation checks the option panics promised by the API.
func TestWheelOptionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithWheelTick(0) must panic")
		}
	}()
	New(WithCalendar(WheelCalendar), WithWheelTick(0))
}
