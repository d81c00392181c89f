package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// lcg is a tiny deterministic generator for scenario construction, so the
// lockstep and reference-order tests are reproducible without seeding
// math/rand.
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

func TestSchedulePanics(t *testing.T) {
	s := New()
	assertPanics(t, "negative delay", func() { s.Schedule(-1, func() {}) })
	assertPanics(t, "NaN delay", func() { s.Schedule(math.NaN(), func() {}) })
	assertPanics(t, "nil action", func() { s.Schedule(1, nil) })
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

// TestCounters: Scheduled counts every event scheduled, nested ones
// included, and Executed every event fired; Step leaves the rest pending.
func TestCounters(t *testing.T) {
	s := New()
	s.Schedule(1, func() { s.Schedule(1, func() {}) })
	s.Schedule(2, func() {})
	s.Step()
	if s.Scheduled() != 3 || s.Executed() != 1 || s.Pending() != 2 {
		t.Fatalf("after one step: scheduled %d, executed %d, pending %d; want 3, 1, 2",
			s.Scheduled(), s.Executed(), s.Pending())
	}
	s.Run()
	if s.Scheduled() != 3 || s.Executed() != 3 || s.Pending() != 0 || s.Bypassed() != 0 {
		t.Fatalf("after Run: scheduled %d, executed %d, pending %d, bypassed %d; want 3, 3, 0, 0",
			s.Scheduled(), s.Executed(), s.Pending(), s.Bypassed())
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
	s.Schedule(math.Inf(1), func() { order = append(order, 3) })
	s.Schedule(1e300, func() { order = append(order, 2) })
	s.Schedule(1e18, func() { order = append(order, 1) })
	s.Schedule(5, func() { order = append(order, 0) })
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
// replication context uses the kernel. Reset keeps the heap's storage, so
// after the warm-up pass grows it this runs at 0 allocs/op (CI-guarded);
// the pre-Reset version of this benchmark rebuilt the calendar each
// iteration and paid 33 allocs/96 KB per op.
func BenchmarkScheduleRun(b *testing.B) {
	s := New()
	action := func() {}
	cycle := func() {
		s.Reset()
		for j := 0; j < 1000; j++ {
			s.Schedule(float64(j%17), action)
		}
		s.Run()
	}
	cycle() // warm the heap to its peak depth so -benchtime 1x measures steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
