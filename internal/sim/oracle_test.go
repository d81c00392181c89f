package sim

import (
	"math"
	"sort"
	"testing"
)

// stamp is one scheduled event's place in the reference order: its firing
// time and its scheduling rank.
type stamp struct {
	time Time
	seq  int
}

// oracleCover counts which corners the random scenarios reached.
type oracleCover struct {
	advanced, refused, ties, zero, huge, inf int
}

// oracleScenario drives one random scenario and returns every event it
// scheduled, in scheduling order, and every event that fired, in firing
// order. Leaf events schedule nested leaves, and chains continue through
// Advance where the kernel lets them; a chain step that advances counts as
// an event scheduled and fired at once. Delays are zero, on a half-unit
// grid (so times tie exactly), short, huge or +Inf.
func oracleScenario(t *testing.T, seed lcg, roots, chains int, cov *oracleCover) (scheduled, fired []stamp) {
	rng := seed
	s := New()
	delay := func() Time {
		switch rng.next() % 10 {
		case 0:
			cov.zero++
			return 0
		case 1, 2, 3, 4:
			return Time(rng.next()%6) * 0.5
		case 5, 6:
			return rng.float() * 20
		case 7:
			cov.huge++
			return 1e300 * (1 + rng.float())
		case 8:
			cov.inf++
			return math.Inf(1)
		default:
			return rng.float() * 0.25
		}
	}
	fire := func(st stamp) {
		if s.Now() != st.time {
			t.Fatalf("event %d fired at %v, scheduled for %v", st.seq, s.Now(), st.time)
		}
		fired = append(fired, st)
	}
	schedule := func(d Time, run func(stamp)) {
		st := stamp{s.Now() + d, len(scheduled)}
		scheduled = append(scheduled, st)
		s.Schedule(d, func() { run(st) })
	}
	var leaf func(depth int) func(stamp)
	leaf = func(depth int) func(stamp) {
		return func(st stamp) {
			fire(st)
			for depth < 3 && rng.next()%3 == 0 {
				schedule(delay(), leaf(depth+1))
			}
		}
	}
	for i := 0; i < roots; i++ {
		schedule(delay(), leaf(0))
	}
	for c := 0; c < chains; c++ {
		left := 20 + int(rng.next()%60)
		var step func(stamp)
		step = func(st stamp) {
			for {
				fire(st)
				if rng.next()%4 == 0 {
					schedule(delay(), leaf(2))
				}
				if left--; left <= 0 {
					return
				}
				d := Time(rng.next()%4) * 0.5
				next := stamp{s.Now() + d, len(scheduled)}
				if !s.Advance(d) {
					cov.refused++
					schedule(d, step)
					return
				}
				cov.advanced++
				scheduled = append(scheduled, next)
				st = next
			}
		}
		schedule(Time(rng.next()%8)*0.5, step)
	}
	s.Run()
	if got := s.Executed(); got != uint64(len(fired)) {
		t.Fatalf("Executed %d, but %d events fired", got, len(fired))
	}
	if got := s.Scheduled(); got != uint64(len(scheduled)) {
		t.Fatalf("Scheduled %d, but %d events were scheduled", got, len(scheduled))
	}
	return scheduled, fired
}

// TestPropertyReferenceOrder is the kernel's firing-order oracle: in
// random scenarios the firing record equals every scheduled (time, seq)
// pair stably sorted by time, so equal times fire in scheduling order and
// an advancing chain never overtakes a pending event. The oracle reads no
// kernel state, so it holds for any calendar behind Schedule and Advance.
func TestPropertyReferenceOrder(t *testing.T) {
	var cov oracleCover
	for trial := 0; trial < 300; trial++ {
		seed := lcg(1999 + 7*trial)
		roots, chains := 1+trial%40, trial%4
		scheduled, fired := oracleScenario(t, seed, roots, chains, &cov)
		want := append([]stamp(nil), scheduled...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].time < want[j].time })
		if len(fired) != len(want) {
			t.Fatalf("trial %d: %d events fired, %d scheduled", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: firing %d is %+v, reference order has %+v", trial, i, fired[i], want[i])
			}
			if i > 0 && want[i].time == want[i-1].time {
				cov.ties++
			}
		}
	}
	if cov.advanced == 0 || cov.refused == 0 || cov.ties == 0 || cov.zero == 0 || cov.huge == 0 || cov.inf == 0 {
		t.Fatalf("corners not reached: %+v", cov)
	}
}
