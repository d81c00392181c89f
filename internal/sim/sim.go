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
// The event calendar is one binary min-heap of (time, seq, action) values.
// It needs two operations, schedule an activity and fire the next one, and
// it is allocation-free in steady state: Reset keeps the heap's storage for
// the next replication.
//
// An action that would end by scheduling its own continuation may call
// Advance instead: when nothing else can fire first, the clock moves and
// the action goes on in the same dispatch. Firing order and every counter
// but Bypassed read the same either way.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time. The unit is chosen by the model; the VOODB model
// uses milliseconds throughout.
type Time = float64

// event is one calendar entry: an action due at time, ordered among equal
// times by seq, the order in which it was scheduled.
type event struct {
	time   Time
	seq    uint64
	action func()
}

// before reports whether e fires before o: (time, seq) is the kernel's one
// and only firing order.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Simulation is a discrete-event simulation: an event calendar and a clock.
// The zero value is not usable; call New.
type Simulation struct {
	now  Time
	heap []event // binary min-heap ordered by (time, seq)
	seq  uint64  // events ever scheduled, the next event's sequence number

	executed uint64
	bypass   uint64 // events Advance continued in place
	peak     int    // high-water mark of Pending()

	// Cooperative halting (see SetStopCheck). The check is polled at a
	// coarse, masked interval inside Run, never per event, so an
	// uninstalled hook costs one nil comparison per poll and the kernel's
	// 0 allocs/op hot paths are untouched.
	stopCheck func() bool
	halted    bool

	// running is set while Run dispatches: Advance continues an action in
	// place only there, so Step keeps its one-event contract.
	running bool
}

// New returns an empty simulation with the clock at zero.
func New() *Simulation { return &Simulation{} }

// Reset returns the simulation to the state New produces — clock at zero,
// empty calendar, zeroed counters, no stop check — while keeping the heap's
// storage for reuse. Resetting instead of reallocating is the DESP-C++
// recycling discipline applied to the calendar itself: a replication
// context resets its simulation once per replication and the second and
// later replications schedule into already-grown storage. Event ordering
// restarts from a zeroed sequence counter, so a reset simulation replays a
// scenario bit-identically to a fresh one.
func (s *Simulation) Reset() {
	clear(s.heap) // release pending actions' captured state for the collector
	*s = Simulation{heap: s.heap[:0]}
}

// Now returns the current simulated time.
func (s *Simulation) Now() Time { return s.now }

// Pending returns the number of events waiting in the calendar.
func (s *Simulation) Pending() int { return len(s.heap) }

// PeakPending returns the high-water mark of Pending() since the last
// Reset — the calendar depth the model actually exercised.
func (s *Simulation) PeakPending() int { return s.peak }

// Scheduled returns the total number of events ever scheduled.
func (s *Simulation) Scheduled() uint64 { return s.seq }

// Executed returns the total number of events executed.
func (s *Simulation) Executed() uint64 { return s.executed }

// Bypassed returns the number of executed events that bypassed the
// calendar since the last Reset: the continuations Advance ran in place.
func (s *Simulation) Bypassed() uint64 { return s.bypass }

// BypassRate returns the fraction of executed events that bypassed the
// calendar since the last Reset — the share of dispatches Advance saved.
// Zero when nothing has executed. It describes the execution schedule,
// never the simulated results: firing order is the same at any rate.
func (s *Simulation) BypassRate() float64 {
	if s.executed == 0 {
		return 0
	}
	return float64(s.bypass) / float64(s.executed)
}

// Schedule registers action to run after delay units of simulated time.
// It panics if delay is negative or NaN, or if action is nil: both are
// model bugs that must not be silently absorbed.
func (s *Simulation) Schedule(delay Time, action func()) {
	if math.IsNaN(delay) || delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v", delay))
	}
	if action == nil {
		panic("sim: Schedule with nil action")
	}
	s.push(event{time: s.now + delay, seq: s.seq, action: action})
	s.seq++
	if len(s.heap) > s.peak {
		s.peak = len(s.heap)
	}
}

// Advance lets the running action go on as the event it would schedule d
// from now, when that event would be the next to fire: every pending event
// is strictly later than now+d. It then moves the clock to now+d and
// reports true, and the caller continues with what it would have
// scheduled. Otherwise it changes nothing and reports false, and the
// caller schedules as usual. An equal time refuses: same-time events fire
// in sequence order, so the pending one goes first.
//
// Only the tail of the running action may call Advance: nothing the action
// would still do after scheduling may run before the continuation. It
// refuses outside Run's dispatch (so Step keeps its one-event contract)
// and once halted.
//
// The books are kept as Schedule and Step would keep them: the
// continuation takes a sequence number, counts as scheduled and executed,
// and lifts the peak, and the stop check is polled where Run would poll
// it, so a halt lands on the same executed count. Only Bypassed counts it
// apart. Advance panics on a negative or NaN delay, like Schedule.
func (s *Simulation) Advance(d Time) bool {
	if math.IsNaN(d) || d < 0 {
		panic(fmt.Sprintf("sim: Advance with invalid delay %v", d))
	}
	if !s.running || s.halted {
		return false
	}
	t := s.now + d
	if len(s.heap) > 0 && t >= s.heap[0].time {
		return false
	}
	// Run polls here, after the running event, before the next one.
	if s.executed&(StopCheckInterval-1) == 0 && s.stopCheck != nil && s.stopCheck() {
		s.halted = true
		return false
	}
	if p := len(s.heap) + 1; p > s.peak {
		s.peak = p
	}
	s.seq++
	s.now = t
	s.executed++
	s.bypass++
	return true
}

// Step executes the single next event. It returns false when the calendar
// is empty.
func (s *Simulation) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.pop()
	s.now = e.time
	s.executed++
	e.action()
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
// hook; either way the halted flag is cleared. The hook is how per-cell
// deadlines and campaign cancellation reach into a long replication
// without per-event cost; it is cleared by Reset so a recycled simulation
// never carries a stale deadline.
func (s *Simulation) SetStopCheck(check func() bool) {
	s.stopCheck = check
	s.halted = false
}

// Halted reports whether the last Run stopped early on the stop check
// rather than draining the calendar. A halted simulation's model state is
// mid-flight and its metrics are meaningless; callers discard the
// replication. Run does nothing until SetStopCheck or Reset clears the
// flag.
func (s *Simulation) Halted() bool { return s.halted }

// Run executes events until the calendar is empty or, with a stop check
// installed, until the check reports the run should halt.
func (s *Simulation) Run() {
	s.running = true
	defer func() { s.running = false }()
	for !s.halted && s.Step() {
		// A halted action skips the poll: Advance may have polled this
		// executed count already and tripped.
		if s.executed&(StopCheckInterval-1) == 0 && !s.halted && s.stopCheck != nil && s.stopCheck() {
			s.halted = true
		}
	}
}

// push adds e to the heap. Both sifts move by hole percolation: the moving
// event is held aside while parents or children shift into the hole, then
// written once.
func (s *Simulation) push(e event) {
	s.heap = append(s.heap, e)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the root, the next event to fire.
func (s *Simulation) pop() event {
	h := s.heap
	root := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = event{} // the vacated tail keeps no action alive
	h = h[:n]
	s.heap = h
	if n == 0 {
		return root
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
	return root
}
