// Package sim implements DESP-Go, a small deterministic discrete-event
// simulation kernel in the spirit of the paper's DESP-C++ (Discrete-Event
// Simulation Package for C++, §3.2.1).
//
// The kernel uses the resource view (Table 2 of the paper): the modeller
// writes active resources as ordinary Go types whose activities are methods
// scheduled on a Simulation, and passive resources as Resource values that
// are reserved and released with queueing.
//
// The kernel is strictly deterministic: events with equal timestamps fire
// in the order they were scheduled, and nothing in the kernel depends on
// map iteration order or wall-clock time.
//
// The event calendar is allocation-free in steady state: events live in a
// slot arena recycled through a free list, and the calendar heap orders
// slot indices rather than pointers. Schedule returns a small value handle
// (Event) carrying a generation counter, so cancelling a stale handle —
// one whose event already fired, was already cancelled, or whose slot has
// since been recycled — is always safe and a no-op.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time. The unit is chosen by the model; the VOODB model
// uses milliseconds throughout.
type Time = float64

// Event is a handle to a scheduled activity, returned by Schedule so the
// caller may cancel it before it fires. It is a small value (safe to copy
// and compare); the zero Event is inert — cancelling it is a no-op.
//
// Handles are generation-counted: once the underlying calendar slot is
// recycled for a newer event, operations through the stale handle do
// nothing rather than touching the new occupant.
type Event struct {
	s    *Simulation
	time Time
	slot int32
	gen  uint32
}

// Time returns the simulated time at which the event fires (or would have
// fired, if cancelled).
func (e Event) Time() Time { return e.time }

// Cancelled reports whether Cancel was called on the event. Once the
// event's slot has been recycled for a newer event the history is gone and
// Cancelled reports false.
func (e Event) Cancelled() bool {
	if e.s == nil || int(e.slot) >= len(e.s.events) {
		return false
	}
	return e.s.events[e.slot].gen == e.gen+1
}

// Pending reports whether the event is still waiting in the calendar.
func (e Event) Pending() bool {
	if e.s == nil || int(e.slot) >= len(e.s.events) {
		return false
	}
	// A live slot is in the heap (heapIdx ≥ 0) or the head-slot register
	// (heapIdx == inHeadSlot).
	slot := &e.s.events[e.slot]
	return slot.gen == e.gen && slot.heapIdx != notQueued
}

// Sentinel values of eventSlot.heapIdx for a slot outside the heap.
const (
	notQueued  int32 = -1 // free: never used, fired or cancelled
	inHeadSlot int32 = -2 // parked in the head-slot dispatch register
)

// eventSlot is one arena entry. Live slots (heapIdx ≥ 0) hold an even
// generation; cancellation bumps the generation to odd, execution bumps it
// by two, and allocation normalizes it back to even — so a handle's
// generation identifies at most one occupancy of the slot, and a
// just-cancelled slot is distinguishable (gen == handle.gen+1) from a
// fired one (gen == handle.gen+2) until the slot is reused.
type eventSlot struct {
	time    Time
	seq     uint64
	action  func()
	heapIdx int32 // index into Simulation.heap, or notQueued / inHeadSlot
	gen     uint32
}

// Simulation is a discrete-event simulation: an event calendar and a clock.
// The zero value is not usable; call New.
type Simulation struct {
	now    Time
	events []eventSlot // slot arena; recycled via free
	free   []int32     // free slot indices (LIFO)
	heap   []int32     // binary min-heap of slot indices, ordered by (time, seq)
	seq    uint64

	// Head-slot dispatch register. headSlot, when ≥ 0, is the arena index
	// of an event strictly earlier in (time, seq) than every event in the
	// heap, so pops read it without touching the heap. The strict
	// inequality is what keeps the fast path bit-identical: a strictly
	// earlier event is the unique next pop, and ties (same-time FIFO)
	// always route through the heap. noBypass forces every event through
	// the heap — the register invariant then holds vacuously — so
	// equivalence tests can run the two dispatch paths in lockstep.
	headSlot int32
	bypass   uint64 // events dispatched through the register
	noBypass bool

	scheduled uint64
	executed  uint64
	cancelled uint64
	peak      int // high-water mark of Pending()

	// Cooperative halting (see SetStopCheck/Halt). The check is polled at
	// a coarse, masked interval inside Run, never per event, so an
	// uninstalled hook costs one nil comparison per loop iteration and the
	// kernel's 0 allocs/op hot paths are untouched.
	stopCheck func() bool
	halted    bool

	// Trace, when non-nil, is invoked for every executed event with the
	// firing time. It exists for debugging models and is never set by the
	// kernel itself.
	Trace func(t Time)
}

// Option configures a Simulation at construction.
type Option func(*Simulation)

// WithHeadSlot enables or disables the head-slot dispatch register
// (default enabled). Firing order — and therefore every simulation result —
// is bit-identical either way: the register only ever holds an event
// strictly earlier than everything in the heap, which is the unique next
// pop regardless. The option exists so equivalence and golden tests can
// run the two dispatch paths in lockstep.
func WithHeadSlot(on bool) Option {
	return func(s *Simulation) { s.noBypass = !on }
}

// New returns an empty simulation with the clock at zero.
func New(opts ...Option) *Simulation {
	s := &Simulation{headSlot: -1}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Reset returns the simulation to the state New produces — clock at zero,
// empty calendar, zeroed counters — while keeping the slot arena, free
// list, and heap storage for reuse. Resetting instead of reallocating is
// the DESP-C++ recycling discipline applied to the calendar itself: a
// replication context resets its simulation once per replication and the
// second and later replications schedule into already-grown storage.
//
// Outstanding Event handles from before the Reset are invalidated the way
// a cancellation invalidates them: every slot's generation is bumped, so a
// stale Cancel (or Pending) through an old handle is an inert no-op even
// after its slot is recycled for a new event. Event ordering restarts from
// a zeroed sequence counter, so a reset simulation replays a scenario
// bit-identically to a fresh one.
func (s *Simulation) Reset() {
	s.now = 0
	s.seq = 0
	s.heap = s.heap[:0]
	s.free = s.free[:0]
	for i := range s.events {
		slot := &s.events[i]
		slot.action = nil // release captured state for the collector
		slot.heapIdx = notQueued
		if slot.gen&1 == 0 {
			slot.gen++ // odd: invalidated, normalized back to even on alloc
		}
		s.free = append(s.free, int32(i))
	}
	s.headSlot = -1
	s.scheduled, s.executed, s.cancelled = 0, 0, 0
	s.bypass = 0
	s.peak = 0
	s.stopCheck = nil
	s.halted = false
}

// Grow pre-sizes the calendar so at least n events can be pending at once
// without growing the arena or the heap — the capacity hint for callers
// whose peak calendar depth is known up front. Without it the storage
// grows on demand, and Reset keeps whatever capacity was reached.
func (s *Simulation) Grow(n int) {
	if cap(s.events) < n {
		events := make([]eventSlot, len(s.events), n)
		copy(events, s.events)
		s.events = events
	}
	if cap(s.free) < n {
		free := make([]int32, len(s.free), n)
		copy(free, s.free)
		s.free = free
	}
	if cap(s.heap) < n {
		heap := make([]int32, len(s.heap), n)
		copy(heap, s.heap)
		s.heap = heap
	}
}

// Now returns the current simulated time.
func (s *Simulation) Now() Time { return s.now }

// Pending returns the number of events waiting in the calendar.
func (s *Simulation) Pending() int {
	p := len(s.heap)
	if s.headSlot >= 0 {
		p++
	}
	return p
}

// PeakPending returns the high-water mark of Pending() since the last
// Reset — the calendar depth the model actually exercised.
func (s *Simulation) PeakPending() int { return s.peak }

// Scheduled returns the total number of events ever scheduled.
func (s *Simulation) Scheduled() uint64 { return s.scheduled }

// Executed returns the total number of events executed.
func (s *Simulation) Executed() uint64 { return s.executed }

// Bypassed returns the number of executed events that were dispatched
// through the head-slot register (skipping the heap entirely) since the
// last Reset.
func (s *Simulation) Bypassed() uint64 { return s.bypass }

// BypassRate returns the fraction of executed events dispatched through
// the head-slot register since the last Reset — the share of scheduler
// work the next-event fast path absorbed. Zero when nothing has executed.
// It describes the execution schedule, never the simulated results: firing
// order is bit-identical at any rate.
func (s *Simulation) BypassRate() float64 {
	if s.executed == 0 {
		return 0
	}
	return float64(s.bypass) / float64(s.executed)
}

// Schedule registers action to run after delay units of simulated time.
// It panics if delay is negative or NaN, or if action is nil: both are
// model bugs that must not be silently absorbed.
func (s *Simulation) Schedule(delay Time, action func()) Event {
	if math.IsNaN(delay) || delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v", delay))
	}
	return s.ScheduleAt(s.now+delay, action)
}

// ScheduleAt registers action to run at absolute simulated time t.
// It panics if t is in the past or action is nil.
func (s *Simulation) ScheduleAt(t Time, action func()) Event {
	if action == nil {
		panic("sim: ScheduleAt with nil action")
	}
	if math.IsNaN(t) || t < s.now {
		panic(fmt.Sprintf("sim: ScheduleAt %v before now %v", t, s.now))
	}
	idx := s.alloc()
	slot := &s.events[idx]
	slot.time = t
	slot.seq = s.seq
	slot.action = action
	s.seq++
	s.scheduled++
	s.place(idx, t)
	return Event{s: s, time: t, slot: idx, gen: s.events[idx].gen}
}

// place routes a freshly filled slot to the head-slot register or the
// heap (ScheduleAt's tail). A new event carries the largest sequence
// number so far, so "strictly earlier in (time, seq) than X" reduces to
// "time strictly before X's".
func (s *Simulation) place(idx int32, t Time) {
	if h := s.headSlot; h >= 0 {
		if t < s.events[h].time {
			// Strictly earlier than the register occupant — and the
			// occupant is strictly earlier than everything in the heap, so
			// the newcomer is the unique next pop. Demote the occupant.
			s.hPush(h)
			s.events[idx].heapIdx = inHeadSlot
			s.headSlot = idx
		} else {
			// At or after the occupant: the heap orders it (same-time ties
			// fire in seq order, and the occupant's seq is smaller).
			s.hPush(idx)
		}
	} else if !s.noBypass && (len(s.heap) == 0 || t < s.events[s.heap[0]].time) {
		// Strictly earlier than the heap root, hence than every heap event:
		// the empty register may take it.
		s.events[idx].heapIdx = inHeadSlot
		s.headSlot = idx
	} else {
		s.hPush(idx)
	}
	if p := s.Pending(); p > s.peak {
		s.peak = p
	}
}

// alloc takes a slot from the free list (normalizing a cancelled slot's odd
// generation back to even) or extends the arena.
func (s *Simulation) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		if s.events[idx].gen&1 != 0 {
			s.events[idx].gen++
		}
		return idx
	}
	s.events = append(s.events, eventSlot{heapIdx: notQueued})
	return int32(len(s.events) - 1)
}

// Cancel removes the event from the calendar if it has not fired yet.
// Cancelling a zero, already-fired, already-cancelled, or recycled handle
// is a no-op.
func (s *Simulation) Cancel(e Event) {
	if e.s != s || s == nil || int(e.slot) >= len(s.events) {
		return
	}
	slot := &s.events[e.slot]
	if slot.gen != e.gen {
		return
	}
	switch {
	case slot.heapIdx >= 0:
		s.hRemove(slot.heapIdx)
	case slot.heapIdx == inHeadSlot:
		slot.heapIdx = notQueued
		s.headSlot = -1
	default:
		return
	}
	slot.action = nil
	slot.gen++ // odd: cancelled
	s.free = append(s.free, e.slot)
	s.cancelled++
}

// Step executes the single next event. It returns false when the calendar
// is empty.
func (s *Simulation) Step() bool {
	idx := s.headSlot
	if idx >= 0 {
		// The register occupant is strictly earlier than everything in the
		// heap, so it is the next pop — no heap work.
		s.headSlot = -1
		s.events[idx].heapIdx = notQueued
		s.bypass++
	} else {
		if len(s.heap) == 0 {
			return false
		}
		idx = s.hPop()
	}
	slot := &s.events[idx]
	s.now = slot.time
	action := slot.action
	slot.action = nil
	slot.gen += 2 // stays even: fired
	s.free = append(s.free, idx)
	s.executed++
	if s.Trace != nil {
		s.Trace(s.now)
	}
	action()
	return true
}

// StopCheckInterval is how many executed events pass between polls of the
// SetStopCheck hook during Run. The interval bounds how stale a
// cancellation can be (a few tens of microseconds of simulation work)
// while keeping the check off the per-event hot path.
const StopCheckInterval = 1 << 14

// SetStopCheck installs a cooperative halt hook: Run polls check every
// StopCheckInterval executed events and, when it returns true, stops
// executing and marks the simulation Halted. A nil check uninstalls the
// hook. The hook is how per-cell deadlines and campaign cancellation reach
// into a long replication without per-event cost; it is cleared by Reset so
// a recycled simulation never carries a stale deadline.
func (s *Simulation) SetStopCheck(check func() bool) {
	s.stopCheck = check
	s.halted = false
}

// Halt stops Run before its next event, as if the stop check had fired.
func (s *Simulation) Halt() { s.halted = true }

// Halted reports whether the last Run stopped early on the stop check (or
// Halt) rather than draining the calendar. A halted simulation's model
// state is mid-flight and its metrics are meaningless; callers discard the
// replication. Reset clears the flag.
func (s *Simulation) Halted() bool { return s.halted }

// Run executes events until the calendar is empty — or, with a stop check
// installed, until the check reports the run should halt.
func (s *Simulation) Run() {
	if s.stopCheck == nil && !s.halted {
		s.runFast()
		return
	}
	for !s.halted && s.Step() {
		if s.executed&(StopCheckInterval-1) == 0 && s.stopCheck != nil && s.stopCheck() {
			s.halted = true
		}
	}
}

// runFast drains the calendar with the per-Step stop-check/halt branches
// hoisted out of the loop: Run has already established that the engine is
// hook-free, so each iteration is just the register check, the (rare)
// heap pop, and the action dispatch.
func (s *Simulation) runFast() {
	for {
		idx := s.headSlot
		if idx >= 0 {
			s.headSlot = -1
			s.events[idx].heapIdx = notQueued
			s.bypass++
		} else if len(s.heap) > 0 {
			idx = s.hPop()
		} else {
			return
		}
		slot := &s.events[idx]
		s.now = slot.time
		action := slot.action
		slot.action = nil
		slot.gen += 2 // stays even: fired
		s.free = append(s.free, idx)
		s.executed++
		if s.Trace != nil {
			s.Trace(s.now)
		}
		action()
	}
}

// RunUntil executes events whose time is ≤ horizon, then advances the clock
// to horizon. Events scheduled beyond the horizon remain in the calendar.
func (s *Simulation) RunUntil(horizon Time) {
	for {
		var t Time
		if s.headSlot >= 0 {
			t = s.events[s.headSlot].time
		} else if len(s.heap) > 0 {
			t = s.events[s.heap[0]].time
		} else {
			break
		}
		if t > horizon {
			break
		}
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// RunFor executes events for d units of simulated time from now.
func (s *Simulation) RunFor(d Time) { s.RunUntil(s.now + d) }

// --- event calendar: a binary min-heap of slot indices, ordered (time, seq) ---
//
// A slot's heapIdx is its position in s.heap.

// slotLess orders two arena slots by (time, seq) — the kernel's one and
// only firing order.
func (s *Simulation) slotLess(a, b int32) bool {
	x, y := &s.events[a], &s.events[b]
	if x.time != y.time {
		return x.time < y.time
	}
	return x.seq < y.seq
}

func (s *Simulation) hPush(idx int32) {
	s.events[idx].heapIdx = int32(len(s.heap))
	s.heap = append(s.heap, idx)
	s.hUp(len(s.heap) - 1)
}

// hPop removes and returns the root slot index.
func (s *Simulation) hPop() int32 {
	h := s.heap
	idx := h[0]
	last := len(h) - 1
	s.heap = h[:last]
	if last > 0 {
		moving := h[last]
		h[0] = moving
		s.events[moving].heapIdx = 0
		s.hDown(0)
	}
	s.events[idx].heapIdx = notQueued
	return idx
}

// hRemove removes the slot at heap position i.
func (s *Simulation) hRemove(i int32) {
	h := s.heap
	idx := h[i]
	last := len(h) - 1
	s.heap = h[:last]
	if int(i) < last {
		moving := h[last]
		h[i] = moving
		s.events[moving].heapIdx = i
		s.hDown(int(i))
		s.hUp(int(i))
	}
	s.events[idx].heapIdx = notQueued
}

// hUp and hDown sift by hole percolation — the displaced element is held
// aside while smaller/larger entries shift into the hole, then written once
// — which halves the slice and heapIdx write traffic of the classic
// swap-based sift. The comparison sequence (and, because (time, seq) is a
// strict total order, the firing order) is unchanged.

func (s *Simulation) hUp(i int) {
	h := s.heap
	moving := h[i]
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		if !s.slotLess(moving, h[parent]) {
			break
		}
		h[i] = h[parent]
		s.events[h[i]].heapIdx = int32(i)
		i = parent
	}
	if i != start {
		h[i] = moving
		s.events[moving].heapIdx = int32(i)
	}
}

func (s *Simulation) hDown(i int) {
	h := s.heap
	n := len(h)
	moving := h[i]
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && s.slotLess(h[r], h[l]) {
			c = r
		}
		if !s.slotLess(h[c], moving) {
			break
		}
		h[i] = h[c]
		s.events[h[i]].heapIdx = int32(i)
		i = c
	}
	if i != start {
		h[i] = moving
		s.events[moving].heapIdx = int32(i)
	}
}
