package sim

import "math/bits"

// CalendarKind selects the event-calendar strategy of a Simulation.
//
// Both calendars fire events in exactly the same order — the strict
// (time, seq) order the kernel has always guaranteed — so the choice is
// purely a performance trade: the binary heap costs O(log n) per operation
// in the pending-event count n, the hierarchical timing wheel costs
// amortized O(1) per schedule and O(log k) per step where k is the number
// of events sharing one tick. The wheel wins decisively at large event
// populations (≥ tens of thousands pending); the heap wins at the small
// calendars of the paper's own figures. AutoCalendar starts on the heap
// and switches to the wheel when a Grow hint announces a large population.
type CalendarKind uint8

const (
	// AutoCalendar (the default) uses the binary heap until Grow is called
	// with a capacity hint of at least WheelAutoThreshold events on an
	// empty calendar, then switches to the timing wheel. Results are
	// bit-identical either way, so the switch is invisible in the output.
	AutoCalendar CalendarKind = iota
	// HeapCalendar pins the binary min-heap calendar (the classic
	// DESP-C++ scheduler discipline).
	HeapCalendar
	// WheelCalendar pins the hierarchical timing wheel from construction.
	WheelCalendar
)

// String returns the kind name.
func (k CalendarKind) String() string {
	switch k {
	case AutoCalendar:
		return "auto"
	case HeapCalendar:
		return "heap"
	case WheelCalendar:
		return "wheel"
	default:
		return "CalendarKind(?)"
	}
}

// WheelAutoThreshold is the Grow hint at which an AutoCalendar simulation
// switches from the binary heap to the timing wheel. Below it the heap's
// shallow log factor and smaller constant win; above it the wheel's O(1)
// scheduling dominates (see PERFORMANCE.md for the measured crossover).
const WheelAutoThreshold = 4096

// DefaultWheelTickMs is the default tick granularity of the wheel. The
// VOODB model works in milliseconds with service times between 0.02 ms
// (object CPU cost) and ~12 ms (a disk access), so a 1 ms tick keeps
// per-tick populations small without inflating the wheel's time horizon.
const DefaultWheelTickMs = 1.0

// Option configures a Simulation at construction.
type Option func(*Simulation)

// WithCalendar selects the calendar strategy (default AutoCalendar).
func WithCalendar(k CalendarKind) Option {
	return func(s *Simulation) { s.kind = k }
}

// WithHeadSlot enables or disables the head-slot dispatch register
// (default enabled). Firing order — and therefore every simulation result —
// is bit-identical either way: the register only ever holds an event
// strictly earlier than the whole backing calendar, which is the unique
// next pop regardless. The option exists so equivalence and golden tests
// can run the two dispatch paths in lockstep.
func WithHeadSlot(on bool) Option {
	return func(s *Simulation) { s.noBypass = !on }
}

// WithWheelTick sets the wheel's tick granularity in simulated time units
// (default DefaultWheelTickMs). It panics on a non-positive tick: a model
// asking for one has a unit bug that must not be silently absorbed.
func WithWheelTick(tick Time) Option {
	return func(s *Simulation) {
		if !(tick > 0) {
			panic("sim: WithWheelTick with non-positive tick")
		}
		s.wheelTick = tick
	}
}

// Wheel geometry: wheelLevels wheels of wheelSlots slots each. Level k
// spans wheelSlots^(k+1) ticks, so four 256-slot levels cover 2^32 ticks
// (≈ 50 days of simulated time at the default 1 ms tick) before the
// overflow tier is touched.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	wheelWords  = wheelSlots / 64

	// overflowBucket is the eventSlot.bucket id of the overflow tier;
	// wheel buckets use level*wheelSlots + slot, which is always smaller.
	overflowBucket = wheelLevels * wheelSlots

	// maxWheelTick caps tick numbers so float→uint64 conversion is always
	// in range; times at or beyond the cap (including +Inf) collapse onto
	// one overflow tick and still fire in exact (time, seq) order through
	// the ready heap.
	maxWheelTick = uint64(1) << 62
)

// wheel is the hierarchical timing-wheel state: multi-level bucket arrays
// with occupancy bitmaps, a bounded overflow tier for events beyond the
// top level's horizon, and the current tick. Events within a bucket hang
// on an intrusive doubly-linked list through the slot arena (eventSlot's
// next/prev), so insertion and cancellation are O(1) and allocation-free.
//
// The wheel never fires an event itself: advancing drains the next due
// bucket into the Simulation's ready heap, which orders the drained
// events by exact (time, seq) — making the wheel's firing order
// bit-identical to the pure heap calendar at every event population.
type wheel struct {
	tickMs  Time
	invTick float64
	// cur is the ready tick: every pending event with tick ≤ cur lives in
	// the ready heap, every event in the wheel/overflow has tick > cur.
	cur   uint64
	count int // events in wheel buckets + overflow (ready heap excluded)

	heads [wheelLevels][wheelSlots]int32
	occ   [wheelLevels][wheelWords]uint64

	overflowHead  int32
	overflowCount int
	// overflowMin is a lower bound on the smallest tick in the overflow
	// tier (cancellations may leave it stale); advancing past it triggers
	// a migration scan that recomputes it exactly.
	overflowMin uint64
}

// newWheel returns a wheel positioned at tick cur.
func newWheel(tickMs Time, cur uint64) *wheel {
	w := &wheel{tickMs: tickMs, invTick: 1 / tickMs, cur: cur}
	w.clear(cur)
	return w
}

// clear empties every bucket and repositions the wheel at tick cur.
func (w *wheel) clear(cur uint64) {
	w.cur = cur
	w.count = 0
	for k := range w.heads {
		for i := range w.heads[k] {
			w.heads[k][i] = -1
		}
		for i := range w.occ[k] {
			w.occ[k][i] = 0
		}
	}
	w.overflowHead = -1
	w.overflowCount = 0
	w.overflowMin = maxWheelTick
}

// tickOf maps a simulated time onto its tick number. Any monotone mapping
// works for correctness (ordering is decided by the ready heap, never by
// the bucket index); this one must simply be used consistently.
func (w *wheel) tickOf(t Time) uint64 {
	q := t * w.invTick
	if q >= float64(maxWheelTick) {
		return maxWheelTick
	}
	return uint64(q)
}

// enableWheel switches the simulation onto the timing wheel. Callers
// ensure the calendar is empty (construction, or an auto-switch on an
// empty simulation), so no migration is needed.
func (s *Simulation) enableWheel() {
	tick := s.wheelTick
	if tick <= 0 {
		tick = DefaultWheelTickMs
	}
	w := newWheel(tick, 0)
	w.cur = w.tickOf(s.now)
	s.wheel = w
}

// bucketPush links slot idx into the given bucket (list head; order
// within a bucket is irrelevant because the ready heap re-orders on
// drain).
func (s *Simulation) bucketPush(bucket int32, idx int32) {
	w := s.wheel
	slot := &s.events[idx]
	var head *int32
	if bucket == overflowBucket {
		head = &w.overflowHead
		w.overflowCount++
	} else {
		head = &w.heads[bucket>>wheelBits][bucket&wheelMask]
		if *head < 0 {
			w.occ[bucket>>wheelBits][(bucket&wheelMask)>>6] |= 1 << uint(bucket&63)
		}
	}
	slot.next = *head
	slot.prev = -1
	slot.bucket = bucket
	if *head >= 0 {
		s.events[*head].prev = idx
	}
	*head = idx
	w.count++
}

// bucketRemove unlinks slot idx from its bucket in O(1).
func (s *Simulation) bucketRemove(idx int32) {
	w := s.wheel
	slot := &s.events[idx]
	bucket := slot.bucket
	if slot.prev >= 0 {
		s.events[slot.prev].next = slot.next
	} else if bucket == overflowBucket {
		w.overflowHead = slot.next
	} else {
		w.heads[bucket>>wheelBits][bucket&wheelMask] = slot.next
	}
	if slot.next >= 0 {
		s.events[slot.next].prev = slot.prev
	}
	if bucket == overflowBucket {
		w.overflowCount--
	} else if w.heads[bucket>>wheelBits][bucket&wheelMask] < 0 {
		w.occ[bucket>>wheelBits][(bucket&wheelMask)>>6] &^= 1 << uint(bucket&63)
	}
	slot.bucket = bkNone
	slot.next, slot.prev = -1, -1
	w.count--
}

// wheelPlace files slot idx by its firing tick: the ready heap for due
// ticks, the shallowest wheel level whose window covers the tick, or the
// overflow tier beyond the top level's horizon. Level k covers slot-value
// differences (tick>>8k) − (cur>>8k) in [1, 255], which makes the mapping
// collision-free as cur advances (two ticks 256 apart never share a
// level-0 slot while both are pending).
func (s *Simulation) wheelPlace(idx int32) {
	w := s.wheel
	tick := w.tickOf(s.events[idx].time)
	if tick <= w.cur {
		s.hPush(idx)
		return
	}
	for k := 0; k < wheelLevels; k++ {
		shift := uint(wheelBits * k)
		if (tick>>shift)-(w.cur>>shift) < wheelSlots {
			s.bucketPush(int32(k)<<wheelBits|int32((tick>>shift)&wheelMask), idx)
			return
		}
	}
	s.bucketPush(overflowBucket, idx)
	if tick < w.overflowMin {
		w.overflowMin = tick
	}
}

// nextSlot finds the cyclic distance (1..wheelSlots-1) from slot `from`
// to the nearest occupied slot of level k. The slot `from` itself is
// never occupied: events mapping onto the current slot always file one
// level down (the [1, 255] window excludes distance 0).
func (w *wheel) nextSlot(k, from int) (int, bool) {
	word, bit := from>>6, uint(from&63)
	if v := w.occ[k][word] &^ ((1 << (bit + 1)) - 1); v != 0 {
		return word<<6 + bits.TrailingZeros64(v) - from, true
	}
	for i := 1; i <= wheelWords; i++ {
		wi := (word + i) & (wheelWords - 1)
		v := w.occ[k][wi]
		if i == wheelWords { // wrapped back: only bits at or below `from`
			v &= (1 << (bit + 1)) - 1
		}
		if v != 0 {
			slot := wi<<6 + bits.TrailingZeros64(v)
			return (slot - from + wheelSlots) & wheelMask, true
		}
	}
	return 0, false
}

// candidate returns the smallest possible next tick: the exact nearest
// level-0 tick, the slot-start lower bounds of the nearest occupied slot
// at each higher level, and the overflow tier's minimum. Lower bounds are
// fine — advance() converges by cascading and re-scanning.
func (w *wheel) candidate() uint64 {
	cand := maxWheelTick
	for k := 0; k < wheelLevels; k++ {
		shift := uint(wheelBits * k)
		if d, ok := w.nextSlot(k, int((w.cur>>shift)&wheelMask)); ok {
			c := ((w.cur >> shift) + uint64(d)) << shift
			if c < cand {
				cand = c
			}
		}
	}
	if w.overflowCount > 0 && w.overflowMin < cand {
		cand = w.overflowMin
	}
	return cand
}

// drainBucket empties one wheel bucket, re-filing every event (due events
// reach the ready heap, the rest cascade into lower levels).
func (s *Simulation) drainBucket(bucket int32) {
	w := s.wheel
	for {
		var idx int32
		if bucket == overflowBucket {
			idx = w.overflowHead
		} else {
			idx = w.heads[bucket>>wheelBits][bucket&wheelMask]
		}
		if idx < 0 {
			return
		}
		s.bucketRemove(idx)
		s.wheelPlace(idx)
	}
}

// migrateOverflow re-files every overflow event that now fits the wheel
// window and recomputes the exact overflow minimum. The scan is O(overflow
// size), amortized: it only runs when the overflow tier actually holds the
// next event (or a stale minimum suggests it might), and each surviving
// event moves strictly closer to the wheels every time.
func (s *Simulation) migrateOverflow() {
	w := s.wheel
	topShift := uint(wheelBits * (wheelLevels - 1))
	min := maxWheelTick
	idx := w.overflowHead
	for idx >= 0 {
		next := s.events[idx].next
		tick := w.tickOf(s.events[idx].time)
		if tick <= w.cur || (tick>>topShift)-(w.cur>>topShift) < wheelSlots {
			s.bucketRemove(idx)
			s.wheelPlace(idx)
		} else if tick < min {
			min = tick
		}
		idx = next
	}
	w.overflowMin = min
}

// setCur advances the wheel's ready tick to m: it cascades the newly
// entered slot of every level whose slot value changed (top-down, so
// events trickle through intermediate levels correctly), drains the
// level-0 slot of tick m into the ready heap, and migrates the overflow
// tier when m has reached its minimum.
func (s *Simulation) setCur(m uint64) {
	w := s.wheel
	old := w.cur
	w.cur = m
	for k := wheelLevels - 1; k >= 1; k-- {
		shift := uint(wheelBits * k)
		if m>>shift != old>>shift {
			s.drainBucket(int32(k)<<wheelBits | int32((m>>shift)&wheelMask))
		}
	}
	s.drainBucket(int32(m & wheelMask))
	if w.overflowCount > 0 && w.overflowMin <= m {
		s.migrateOverflow()
	}
}

// advance fills the ready heap with the next due events from the wheel. It
// returns false when the whole calendar (wheel plus ready heap) is empty.
// Each iteration either strictly advances the ready tick toward the next
// pending event or raises the overflow minimum past it, so the loop
// terminates.
func (s *Simulation) advance() bool {
	w := s.wheel
	if w == nil {
		return false
	}
	for len(s.heap) == 0 {
		if w.count == 0 {
			return false
		}
		s.setCur(w.candidate())
	}
	return true
}

// peek ensures the earliest pending event is at the ready heap's root,
// returning false when the calendar is empty. Because every wheel event's
// tick is strictly greater than the ready tick, a non-empty ready heap
// always holds the global (time, seq) minimum.
func (s *Simulation) peek() bool {
	return len(s.heap) > 0 || s.advance()
}
