package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// lcg is a tiny deterministic generator for scenario construction, so the
// equivalence tests are reproducible without seeding math/rand.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 11
}

func (l *lcg) float() float64 { return float64(l.next()) / float64(1<<53) }

// fired is one observed execution: which event ran, and when.
type fired struct {
	id  int
	now Time
}

// runScenario drives one deterministic scenario — schedules with a wide
// delay spectrum (sub-millisecond to far future), nested re-scheduling
// from actions, and interleaved cancellations — and returns the firing
// record.
func runScenario(s *Simulation, n int, seed lcg) []fired {
	rng := seed
	var record []fired
	var handles []Event
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		myID := id
		id++
		// Delay spectrum: 40% below 1 ms, 30% up to 40 ms, 20% up to
		// 100 s, 10% far future.
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

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(5, func() { got = append(got, 5) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(3, func() { got = append(got, 3) })
	s.Schedule(2, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if s.Now() != 5 {
		t.Errorf("Now() = %v, want 5", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(7, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("events with equal time fired out of order: position %d got %d", i, v)
		}
	}
}

func TestZeroDelayRunsAtSameTime(t *testing.T) {
	s := New()
	var fired bool
	s.Schedule(2, func() {
		s.Schedule(0, func() {
			if s.Now() != 2 {
				t.Errorf("zero-delay event at %v, want 2", s.Now())
			}
			fired = true
		})
	})
	s.Run()
	if !fired {
		t.Fatal("zero-delay event never fired")
	}
}

func TestScheduleDuringRun(t *testing.T) {
	s := New()
	count := 0
	var recurse func()
	recurse = func() {
		count++
		if count < 10 {
			s.Schedule(1, recurse)
		}
	}
	s.Schedule(1, recurse)
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if s.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Cancelling twice, or cancelling a zero handle, must be harmless.
	s.Cancel(e)
	s.Cancel(Event{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	var events []Event
	for i := 0; i < 50; i++ {
		i := i
		events = append(events, s.Schedule(float64(i), func() { got = append(got, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 50; i += 3 {
		s.Cancel(events[i])
	}
	s.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 50-17 {
		t.Fatalf("len(got) = %d, want 33", len(got))
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []float64
	for _, d := range []float64{1, 2, 3, 4, 5} {
		d := d
		s.Schedule(d, func() { got = append(got, d) })
	}
	s.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("len(got) = %d, want 3", len(got))
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.Run()
	if len(got) != 5 || s.Now() != 5 {
		t.Fatalf("after Run: got %v now %v", got, s.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", s.Now())
	}
	s.RunFor(8)
	if s.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", s.Now())
	}
}

func TestSchedulePanics(t *testing.T) {
	s := New()
	assertPanics(t, "negative delay", func() { s.Schedule(-1, func() {}) })
	assertPanics(t, "nil action", func() { s.Schedule(1, nil) })
	s.Schedule(5, func() {})
	s.Step()
	assertPanics(t, "past time", func() { s.ScheduleAt(1, func() {}) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestCounters(t *testing.T) {
	s := New()
	e := s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	s.Cancel(e)
	s.Run()
	if s.Scheduled() != 2 || s.Executed() != 1 {
		t.Fatalf("scheduled %d executed %d, want 2 and 1", s.Scheduled(), s.Executed())
	}
}

// Property: however events are scheduled, they are executed in
// nondecreasing time order and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fireTimes []float64
		for _, d := range delays {
			s.Schedule(float64(d), func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		return sort.Float64sAreSorted(fireTimes) && len(fireTimes) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving random schedules and cancels keeps the heap
// consistent — every surviving event fires exactly once in order.
func TestPropertyScheduleCancelStress(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s := New()
		live := make(map[Event]bool)
		fired := 0
		var all []Event
		for i := 0; i < 500; i++ {
			e := s.Schedule(r.Float64()*100, func() { fired++ })
			live[e] = true
			all = append(all, e)
			if r.Intn(3) == 0 && len(all) > 0 {
				victim := all[r.Intn(len(all))]
				if live[victim] {
					s.Cancel(victim)
					delete(live, victim)
				}
			}
		}
		s.Run()
		if fired != len(live) {
			t.Fatalf("trial %d: fired %d, want %d", trial, fired, len(live))
		}
	}
}

// TestPeakPending checks the pending-event high-water mark and that Reset
// clears it.
func TestPeakPending(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Schedule(Time(i)*1000, func() {})
	}
	s.Run()
	if s.PeakPending() != 10 {
		t.Fatalf("peak=%d want 10", s.PeakPending())
	}
	s.Reset()
	if s.PeakPending() != 0 {
		t.Fatal("peak survives Reset")
	}
}

// TestHugeTimes checks that huge times, +Inf included, still fire in
// exact time order.
func TestHugeTimes(t *testing.T) {
	s := New()
	var order []int
	s.ScheduleAt(math.Inf(1), func() { order = append(order, 3) })
	s.ScheduleAt(1e300, func() { order = append(order, 2) })
	s.ScheduleAt(1e18, func() { order = append(order, 1) })
	s.ScheduleAt(5, func() { order = append(order, 0) })
	s.Run()
	if len(order) != 4 {
		t.Fatalf("huge-time order %v", order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("huge-time order %v", order)
		}
	}
}

// BenchmarkScheduleRun measures a whole calendar lifecycle — fill with
// 1000 events, drain, reset — on a long-lived simulation, the way a
// replication context uses the kernel. Reset recycles the slot arena and
// Grow pre-sizes it, so after the warm-up pass this runs at 0 allocs/op
// (CI-guarded); the pre-Reset version of this benchmark rebuilt the
// calendar each iteration and paid 33 allocs/96 KB per op.
func BenchmarkScheduleRun(b *testing.B) {
	s := New()
	s.Grow(1000)
	action := func() {}
	cycle := func() {
		s.Reset()
		for j := 0; j < 1000; j++ {
			s.Schedule(float64(j%17), action)
		}
		s.Run()
	}
	cycle() // warm the arena to its peak depth so -benchtime 1x measures steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
