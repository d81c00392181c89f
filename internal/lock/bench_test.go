package lock

import "testing"

// BenchmarkAcquireReleaseCycle measures the uncontended hot path of the
// transaction pipeline: begin, take a batch of shared locks, commit. The
// transaction is the only locker, so its commit releases in one step. With
// the dense held lists this is allocation-free in steady state.
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

// BenchmarkAcquireReleaseInterleaved measures the per-item release path:
// two transactions overlap, taking disjoint shared locks in turn, and each
// ends while the other still holds its locks, so neither is ever the only
// locker and every commit releases item by item.
func BenchmarkAcquireReleaseInterleaved(b *testing.B) {
	m := NewManager()
	granted := func() {}
	take := func(first Item) Tx {
		tx := m.Begin()
		for item := first; item < 32; item += 2 {
			if m.Acquire(tx, item, Shared, granted) != Granted {
				b.Fatal("uncontended request not granted")
			}
		}
		return tx
	}
	odd := take(1)
	cycle := func() {
		even := take(0)
		m.End(odd)
		odd = take(1)
		m.End(even)
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
	cycle := func() {
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
	cycle() // warm the pools so even -benchtime 1x measures steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkReleaseAllWide measures acquiring and releasing a wide lock set
// (a set-oriented OCB transaction holds hundreds of objects). The
// transaction is the only locker, so its commit releases in one step.
func BenchmarkReleaseAllWide(b *testing.B) {
	m := NewManager()
	granted := func() {}
	wide := func() {
		tx := m.Begin()
		for k := 0; k < 256; k++ {
			if m.Acquire(tx, Item((k*167)%256), Shared, granted) != Granted {
				b.Fatal("uncontended request not granted")
			}
		}
		m.End(tx)
	}
	// Warm the pools to the wide working set before measuring: the first
	// cycle grows the held list to 256 entries, and
	// without it a short -benchtime run reports those one-time growths as
	// steady-state B/op.
	wide()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wide()
	}
}
