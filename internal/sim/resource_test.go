package sim

import (
	"testing"
	"testing/quick"
)

// request is a holder's whole request: Acquire, and run grant at once
// when a token was free.
func request(r *Resource, grant func()) {
	if r.Acquire(grant) {
		grant()
	}
}

func TestResourceImmediateGrant(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu", 2)
	granted := 0
	request(r, func() { granted++ })
	request(r, func() { granted++ })
	if granted != 2 {
		t.Fatalf("granted = %d, want 2 (immediate)", granted)
	}
	if r.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", r.InUse())
	}
	queued := false
	request(r, func() { queued = true })
	if queued {
		t.Fatal("third request granted beyond capacity")
	}
	if r.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want 1", r.QueueLen())
	}
}

func TestResourceFIFOGrantOrder(t *testing.T) {
	s := New()
	r := NewResource(s, "disk", 1)
	var order []int
	request(r, func() {}) // occupy
	for i := 1; i <= 5; i++ {
		i := i
		request(r, func() {
			order = append(order, i)
			r.Release()
		})
	}
	r.Release()
	s.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

func TestResourceReleasePanicsWhenIdle(t *testing.T) {
	s := New()
	r := NewResource(s, "x", 1)
	assertPanics(t, "release idle", r.Release)
}

func TestResourceCapacityPanics(t *testing.T) {
	s := New()
	assertPanics(t, "zero capacity", func() { NewResource(s, "x", 0) })
}

// A single-server station with deterministic service: utilization and queue
// statistics must match hand computation. Two jobs arrive at t=0 and t=1,
// each holding the server for 2.
func TestResourceStatistics(t *testing.T) {
	s := New()
	r := NewResource(s, "srv", 1)
	serve := func() {
		request(r, func() {
			s.Schedule(2, r.Release)
		})
	}
	s.Schedule(0, serve)
	s.Schedule(1, serve)
	s.Run()
	// Busy from 0 to 4 continuously (job2 starts at 2, ends 4).
	if got := s.Now(); got != 4 {
		t.Fatalf("end time %v, want 4", got)
	}
	if u := r.Utilization(); !within(u, 1.0, 1e-9) {
		t.Errorf("utilization %v, want 1", u)
	}
	// Job 2 waited from t=1 to t=2 → total wait 1 over 2 grants.
	if w := r.MeanWait(); !within(w, 0.5, 1e-9) {
		t.Errorf("mean wait %v, want 0.5", w)
	}
	// Queue held 1 waiter from t=1 to t=2 → ∫q dt / 4 = 0.25.
	if q := r.MeanQueueLength(); !within(q, 0.25, 1e-9) {
		t.Errorf("mean queue length %v, want 0.25", q)
	}
}

func TestResourceResetStats(t *testing.T) {
	s := New()
	r := NewResource(s, "srv", 1)
	request(r, func() { s.Schedule(10, r.Release) })
	s.Run()
	r.ResetStats()
	if u := r.Utilization(); u != 0 {
		t.Fatalf("utilization after reset = %v, want 0", u)
	}
	if r.Grants() != 0 {
		t.Fatalf("grants after reset = %d, want 0", r.Grants())
	}
}

// TestAcquire: a free token is taken at once and the grant is left to the
// caller; a busy resource queues the grant, and the release hands it the
// token through a kernel event at the release time.
func TestAcquire(t *testing.T) {
	s := New()
	r := NewResource(s, "x", 1)
	granted := 0
	grant := func() { granted++ }
	if !r.Acquire(grant) || granted != 0 || r.InUse() != 1 {
		t.Fatalf("Acquire on an idle resource: granted %d, InUse %d; want taken, grant left to the caller", granted, r.InUse())
	}
	if r.Acquire(grant) || r.QueueLen() != 1 {
		t.Fatalf("Acquire beyond capacity did not queue: QueueLen %d", r.QueueLen())
	}
	s.Schedule(2, r.Release)
	s.Run()
	if granted != 1 || r.InUse() != 1 || r.QueueLen() != 0 || s.Now() != 2 {
		t.Fatalf("after the release: granted %d, InUse %d, QueueLen %d at %v; want 1, 1, 0 at 2",
			granted, r.InUse(), r.QueueLen(), s.Now())
	}
	if r.Grants() != 2 || r.MeanWait() != 1 {
		t.Fatalf("grants %d, mean wait %v; want 2 and 1", r.Grants(), r.MeanWait())
	}
	r.Release()
	if !r.Acquire(grant) {
		t.Fatal("Acquire after release failed")
	}
	assertPanics(t, "nil grant", func() { r.Acquire(nil) })
}

// Property: for any pattern of request/hold durations on a capacity-c
// resource, the number of simultaneous holders never exceeds c, and every
// request is eventually granted exactly once.
func TestPropertyResourceNeverOverCommits(t *testing.T) {
	f := func(holds []uint8, capRaw uint8) bool {
		capacity := int(capRaw%4) + 1
		s := New()
		r := NewResource(s, "r", capacity)
		granted := 0
		maxInUse := 0
		for _, h := range holds {
			h := float64(h%16) + 0.5
			request(r, func() {
				granted++
				if r.InUse() > maxInUse {
					maxInUse = r.InUse()
				}
				s.Schedule(h, r.Release)
			})
		}
		s.Run()
		return granted == len(holds) && maxInUse <= capacity && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func within(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
