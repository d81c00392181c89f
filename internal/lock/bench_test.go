package lock

import "testing"

// BenchmarkAcquireReleaseCycle measures the uncontended hot path of the
// transaction pipeline: begin, take a batch of shared locks, commit. With
// the dense held lists and recycled entries this is allocation-free in
// steady state.
func BenchmarkAcquireReleaseCycle(b *testing.B) {
	m := NewManager()
	granted := func() {}
	cycle := func() {
		tx := m.Begin()
		for item := Item(0); item < 16; item++ {
			if m.Acquire(tx, item, Shared, granted) != Granted {
				b.Fatal("uncontended request not granted")
			}
		}
		m.End(tx)
	}
	cycle() // warm the pools so even -benchtime 1x measures steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkAcquireConflictDispatch measures the contended path: an older
// transaction queues behind a younger exclusive holder (wait-die permits
// old-behind-young waits) and is granted at release, exercising the queue,
// dispatch, and the waits-purging End.
func BenchmarkAcquireConflictDispatch(b *testing.B) {
	m := NewManager()
	granted := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		older := m.Begin()
		younger := m.Begin()
		m.Acquire(younger, 1, Exclusive, granted)
		// The older request queues behind younger.
		if m.Acquire(older, 1, Exclusive, granted) != Queued {
			b.Fatal("older request did not queue")
		}
		m.End(younger) // dispatch grants older
		m.End(older)
	}
}

// BenchmarkReleaseAllWide measures commit-time release of a wide lock set
// (a set-oriented OCB transaction holds hundreds of objects), dominated by
// the allocation-free item sort.
func BenchmarkReleaseAllWide(b *testing.B) {
	m := NewManager()
	granted := func() {}
	wide := func() {
		tx := m.Begin()
		// Acquire in a scrambled order so the sort does real work.
		for k := 0; k < 256; k++ {
			if m.Acquire(tx, Item((k*167)%256), Shared, granted) != Granted {
				b.Fatal("uncontended request not granted")
			}
		}
		m.End(tx)
	}
	// Warm the pools to the wide working set before measuring: the first
	// cycle grows the held lists and sort scratch to 256 entries, and
	// without it a short -benchtime run reports those one-time growths as
	// steady-state B/op.
	wide()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wide()
	}
}
