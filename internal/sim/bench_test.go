package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleStep measures the steady-state cost of one
// schedule-then-execute cycle: the kernel's innermost loop. It must run at
// 0 allocs/op.
func BenchmarkScheduleStep(b *testing.B) {
	s := New()
	action := func() {}
	// Prime a realistic calendar depth so heap operations are not trivial,
	// then run one cycle so the heap holds the peak depth and even
	// -benchtime 1x (the CI alloc-regression guard) measures steady state.
	for i := 0; i < 64; i++ {
		s.Schedule(float64(i), action)
	}
	s.Schedule(1, action)
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(1, action)
		s.Step()
	}
}

// BenchmarkScheduleStepChain measures the schedule-pop ping-pong on an
// otherwise empty calendar — the shape of a state machine that schedules
// one continuation per activity step, so that in the closed single-user
// regime every insert is immediately the next pop (VOODB's transaction
// pipeline continues in place there instead; see BenchmarkAdvanceChain).
// 0 allocs/op.
func BenchmarkScheduleStepChain(b *testing.B) {
	s := New()
	action := func() {}
	// One warm cycle so -benchtime 1x measures steady state.
	s.Schedule(1, action)
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(1, action)
		s.Step()
	}
}

// advanceEvery is how often BenchmarkAdvanceChain's chain schedules
// instead of advancing.
const advanceEvery = 16

// BenchmarkAdvanceChain measures a chain that continues in place through
// Advance — the transaction pipeline's shape when no other event can fire
// first — with every advanceEvery-th step scheduled through the calendar,
// so both paths run. One op is one executed event, comparable with
// BenchmarkScheduleStepChain's schedule-pop cycle. 0 allocs/op.
func BenchmarkAdvanceChain(b *testing.B) {
	s := New()
	left := 0
	var step func()
	step = func() {
		for {
			if left--; left <= 0 {
				return
			}
			if left%advanceEvery == 0 || !s.Advance(1) {
				s.Schedule(1, step)
				return
			}
		}
	}
	chain := func(n int) {
		s.Reset()
		left = n
		s.Schedule(1, step)
		s.Run()
	}
	// One warm chain so -benchtime 1x measures steady state.
	chain(2 * advanceEvery)
	b.ReportAllocs()
	b.ResetTimer()
	chain(b.N)
	b.StopTimer()
	if b.N > 2*advanceEvery && s.Executed() != uint64(b.N) {
		b.Fatalf("chain executed %d events, want %d", s.Executed(), b.N)
	}
}

// BenchmarkCalendarScale is the calendar-scale stress suite: a hold model
// (pop the next event, schedule a replacement at a pseudo-random future
// offset) over a standing population of 10k/100k/1M pending events. This
// is the classic event-calendar benchmark shape: the heap pays O(log n)
// per hold. No VOODB model comes near these depths (the deepest recorded
// calendar peak is 64), so the suite bounds the kernel's worst case rather
// than tracking a model workload. 0 allocs/op.
func BenchmarkCalendarScale(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("pending%d", n), func(b *testing.B) {
			s := New()
			rng := lcg(2026)
			var hold func()
			hold = func() {
				s.Schedule(rng.float()*1e4, hold)
			}
			for i := 0; i < n; i++ {
				s.Schedule(rng.float()*1e4, hold)
			}
			// One warm hold so -benchtime 1x measures steady state.
			s.Step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.StopTimer()
			if got := s.Pending(); got != n {
				b.Fatalf("population drifted: %d != %d", got, n)
			}
		})
	}
}
