package sim

import (
	"math"
	"testing"
)

// advanceStats counts how a model's Advance calls went.
type advanceStats struct {
	advanced, tieRefused int
}

// tryAdvance is the tail of a model action that continues after d: with
// advance set it tries Advance first, and it reports whether the caller
// goes on in place. Otherwise it schedules next, as a model that never
// advances does. It also classifies the call in st, reading the calendar
// before Advance touches it.
func tryAdvance(s *Simulation, advance bool, d Time, next func(), st *advanceStats) bool {
	if advance {
		tie := len(s.heap) > 0 && s.heap[0].time == s.now+d
		if s.Advance(d) {
			st.advanced++
			return true
		}
		if tie {
			st.tieRefused++
		}
	}
	s.Schedule(d, next)
	return false
}

// runChains drives chains of steps over a calendar they share with one-shot
// side events. Every step records itself, may schedule a side event, and
// continues after a delay on a half-unit grid, so continuations often land
// exactly on a pending event's time. Side events reach further than a
// step's delay, so a continuation often goes on in front of one.
func runChains(s *Simulation, advance bool, chains, steps int, seed lcg, st *advanceStats) []fired {
	rng := seed
	var record []fired
	side := 0
	grid := func(n uint64) Time { return Time(rng.next()%n) * 0.5 }
	for c := 0; c < chains; c++ {
		id, left := c, steps
		var step func()
		step = func() {
			for {
				record = append(record, fired{id: id, now: s.Now()})
				if left--; left == 0 {
					return
				}
				if rng.float() < 0.3 {
					side++
					sid := -side
					s.Schedule(grid(9), func() {
						record = append(record, fired{id: sid, now: s.Now()})
					})
				}
				if !tryAdvance(s, advance, grid(5), step, st) {
					return
				}
			}
		}
		s.Schedule(grid(5), step)
	}
	s.Run()
	return record
}

// sameRun fails unless two runs of one model — advancing in place and
// always scheduling — fired the same (id, time) record and kept the same
// books. Only Bypassed tells them apart: the scheduling model never
// bypasses the calendar.
func sameRun(t *testing.T, adv, sch *Simulation, advRec, schRec []fired) {
	t.Helper()
	if len(advRec) == 0 {
		t.Fatal("model fired nothing")
	}
	if len(advRec) != len(schRec) {
		t.Fatalf("advancing model fired %d events, scheduling model %d", len(advRec), len(schRec))
	}
	for i := range advRec {
		if advRec[i] != schRec[i] {
			t.Fatalf("firing %d differs: advancing %+v, scheduling %+v", i, advRec[i], schRec[i])
		}
	}
	type books struct {
		scheduled, executed uint64
		peak, pending       int
		now                 Time
		halted              bool
	}
	read := func(s *Simulation) books {
		return books{s.Scheduled(), s.Executed(), s.PeakPending(), s.Pending(), s.Now(), s.Halted()}
	}
	if a, b := read(adv), read(sch); a != b {
		t.Fatalf("books differ:\n advancing  %+v\n scheduling %+v", a, b)
	}
	if sch.Bypassed() != 0 {
		t.Fatalf("the scheduling model bypassed %d events", sch.Bypassed())
	}
}

// TestAdvanceLockstep runs the random chain model advancing in place and
// always scheduling: the records and the books must match, and Bypassed
// must count the advances. Across the runs, the model must have advanced,
// refused a continuation that landed exactly on a pending event, and fired
// events from the calendar as well as in place.
func TestAdvanceLockstep(t *testing.T) {
	var total advanceStats
	for _, chains := range []int{1, 3, 12} {
		var st advanceStats
		adv, sch := New(), New()
		advRec := runChains(adv, true, chains, 400, lcg(2026+chains), &st)
		schRec := runChains(sch, false, chains, 400, lcg(2026+chains), &advanceStats{})
		sameRun(t, adv, sch, advRec, schRec)
		if adv.Bypassed() != uint64(st.advanced) {
			t.Fatalf("%d chains: bypassed %d, advanced %d", chains, adv.Bypassed(), st.advanced)
		}
		if adv.Bypassed() == adv.Executed() {
			t.Fatalf("%d chains: every event continued in place", chains)
		}
		total.advanced += st.advanced
		total.tieRefused += st.tieRefused
	}
	if total.advanced == 0 || total.tieRefused == 0 {
		t.Fatalf("paths not exercised: %+v", total)
	}
}

// TestAdvanceRefusesTie pins the strict inequality: a continuation that
// lands exactly on a pending event refuses (the pending event's sequence
// number is smaller, so it fires first), and one strictly earlier
// continues.
func TestAdvanceRefusesTie(t *testing.T) {
	s := New()
	var got []bool
	var at []Time
	s.Schedule(3, func() { at = append(at, s.Now()) })
	s.Schedule(1, func() {
		got = append(got, s.Advance(2), s.Advance(1.5))
		at = append(at, s.Now())
	})
	s.Run()
	if len(got) != 2 || got[0] || !got[1] {
		t.Fatalf("Advance onto the t=3 event, then short of it: %v, want [false true]", got)
	}
	if len(at) != 2 || at[0] != 2.5 || at[1] != 3 {
		t.Fatalf("clock after the advance, then at the pending event: %v, want [2.5 3]", at)
	}
	if s.Executed() != 3 || s.Scheduled() != 3 || s.Bypassed() != 1 {
		t.Fatalf("books: executed %d, scheduled %d, bypassed %d; want 3, 3, 1",
			s.Executed(), s.Scheduled(), s.Bypassed())
	}
}

// TestAdvanceStopCheck: a stop check tripping mid-chain halts the
// advancing model at the same executed count, after the same number of
// polls, with the same continuation pending; both then resume alike.
func TestAdvanceStopCheck(t *testing.T) {
	model := func(s *Simulation, advance bool) ([]fired, int) {
		var record []fired
		var st advanceStats
		left := 3*StopCheckInterval + 5
		var step func()
		step = func() {
			for {
				record = append(record, fired{id: 0, now: s.Now()})
				if left--; left == 0 || !tryAdvance(s, advance, 0.25, step, &st) {
					return
				}
			}
		}
		s.Schedule(0.25, step)
		polls := 0
		s.SetStopCheck(func() bool {
			polls++
			return polls == 2
		})
		s.Run()
		if !s.Halted() || s.Executed() != 2*StopCheckInterval || s.Pending() != 1 {
			t.Fatalf("advance=%v: halted %v at %d events with %d pending; want halted at %d with 1",
				advance, s.Halted(), s.Executed(), s.Pending(), 2*StopCheckInterval)
		}
		s.SetStopCheck(nil)
		s.Run()
		return record, polls
	}
	adv, sch := New(), New()
	advRec, advPolls := model(adv, true)
	schRec, schPolls := model(sch, false)
	sameRun(t, adv, sch, advRec, schRec)
	if advPolls != 2 || schPolls != 2 {
		t.Fatalf("polls: advancing %d, scheduling %d; want 2 each", advPolls, schPolls)
	}
	// Only the first step and the continuation pending at the halt fire
	// from the calendar.
	if adv.Bypassed() != adv.Executed()-2 {
		t.Fatalf("a lone chain bypassed %d of %d events, want all but 2", adv.Bypassed(), adv.Executed())
	}
}

// TestAdvanceRefusals: outside Run's dispatch (Step, no action at all) and
// once halted, Advance changes nothing and reports false.
func TestAdvanceRefusals(t *testing.T) {
	s := New()
	var got []bool
	try := func() { got = append(got, s.Advance(1)) }
	s.Schedule(1, try)
	s.Schedule(5, try)
	s.Step()
	s.Step()
	try()
	if len(got) != 3 || got[0] || got[1] || got[2] {
		t.Fatalf("Advance from Step and outside any action: %v, want all false", got)
	}
	if s.Now() != 5 || s.Executed() != 2 || s.Scheduled() != 2 {
		t.Fatalf("refused Advance moved the books: now %v, executed %d, scheduled %d", s.Now(), s.Executed(), s.Scheduled())
	}

	s = New()
	got = got[:0]
	s.Schedule(1, func() {
		s.halted = true
		got = append(got, s.Advance(1))
	})
	s.Run()
	if len(got) != 1 || got[0] || s.Now() != 1 {
		t.Fatalf("halted: Advance %v at now %v, want false at 1", got, s.Now())
	}
}

// TestAdvanceInvalidDelayPanics: a negative or NaN delay is a model bug,
// refused by a panic as in Schedule, even where Advance would refuse.
func TestAdvanceInvalidDelayPanics(t *testing.T) {
	for _, d := range []Time{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Advance(%v) did not panic", d)
				}
			}()
			New().Advance(d)
		}()
	}
}
