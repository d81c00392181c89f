package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleStep measures the steady-state cost of one
// schedule-then-execute cycle: the kernel's innermost loop. With the slot
// arena this must run at 0 allocs/op.
func BenchmarkScheduleStep(b *testing.B) {
	s := New()
	action := func() {}
	// Prime a realistic calendar depth so heap operations are not trivial,
	// then run two cycles so the arena and heap hold the peak depth and even
	// -benchtime 1x (the CI alloc-regression guard) measures steady state.
	// The first cycle dispatches the primed t=0 event from the head-slot
	// register, so the heap only reaches its peak on the second.
	for i := 0; i < 64; i++ {
		s.Schedule(float64(i), action)
	}
	for i := 0; i < 2; i++ {
		s.Schedule(1, action)
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(1, action)
		s.Step()
	}
}

// BenchmarkScheduleStepChain measures the schedule-pop ping-pong on an
// otherwise empty calendar — the transaction-pipeline shape: VOODB's state
// machines schedule one continuation per activity step, so in the closed
// single-user regime nearly every insert is immediately the next pop. This
// is the head-slot register's target workload: the whole chain must
// dispatch through the register (bypass rate 1) without touching the heap,
// at 0 allocs/op.
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
	b.StopTimer()
	if b.N > 1 && s.BypassRate() < 0.99 {
		b.Fatalf("chain did not bypass: rate %.3f", s.BypassRate())
	}
}

// BenchmarkScheduleCancel measures schedule-then-cancel, the path lock
// timeouts and failure injectors exercise. Also 0 allocs/op in steady
// state.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New()
	action := func() {}
	for i := 0; i < 64; i++ {
		s.Schedule(float64(i), action)
	}
	s.Cancel(s.Schedule(1, action))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(1, action)
		s.Cancel(e)
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
			s.Grow(n + 1)
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
