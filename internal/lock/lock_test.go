package lock

import (
	"math"
	"runtime"
	"testing"
)

func grantFlag(flag *bool) func() { return func() { *flag = true } }

func mustGrant(t *testing.T, m *Manager, tx TxID, item Item, mode Mode) {
	t.Helper()
	granted := false
	m.Acquire(tx, item, mode, grantFlag(&granted), func() { t.Fatalf("tx %d died on %d", tx, item) })
	if !granted {
		t.Fatalf("tx %d not granted %v on %d", tx, mode, item)
	}
}

func TestSharedCompatible(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustGrant(t, m, t1, 1, Shared)
	mustGrant(t, m, t2, 1, Shared)
	if m.Acquisitions() != 2 {
		t.Errorf("acquisitions = %d", m.Acquisitions())
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustGrant(t, m, t1, 1, Exclusive)
	// t2 is younger → wait-die kills it.
	died := false
	m.Acquire(t2, 1, Shared, func() { t.Fatal("granted over X lock") }, grantFlag(&died))
	if !died {
		t.Fatal("younger conflicting transaction should die")
	}
	if m.Deaths() != 1 {
		t.Errorf("deaths = %d", m.Deaths())
	}
}

func TestOlderWaitsAndIsGranted(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustGrant(t, m, t2, 1, Exclusive) // younger holds
	granted := false
	m.Acquire(t1, 1, Exclusive, grantFlag(&granted), func() { t.Fatal("older tx died") })
	if granted {
		t.Fatal("granted while conflicting holder exists")
	}
	if m.Waits() != 1 {
		t.Errorf("waits = %d", m.Waits())
	}
	m.ReleaseAll(t2)
	if !granted {
		t.Fatal("queued request not granted on release")
	}
}

func TestFIFOGrantOnRelease(t *testing.T) {
	m := NewManager()
	holder := m.Begin()
	mustGrant(t, m, holder, 1, Exclusive)
	// Two older… impossible: Begin order gives increasing IDs. Instead use
	// shared waiters queued behind an exclusive holder — they cannot die
	// only if older; so create waiters first. Rebuild scenario:
	m2 := NewManager()
	w1, w2, h := m2.Begin(), m2.Begin(), m2.Begin()
	mustGrant(t, m2, h, 5, Exclusive) // youngest holds
	var order []int
	m2.Acquire(w1, 5, Shared, func() { order = append(order, 1) }, func() { t.Fatal("w1 died") })
	m2.Acquire(w2, 5, Shared, func() { order = append(order, 2) }, func() { t.Fatal("w2 died") })
	m2.ReleaseAll(h)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("grant order = %v, want [1 2]", order)
	}
}

func TestSharedBatchGranted(t *testing.T) {
	m := NewManager()
	w1, w2, h := m.Begin(), m.Begin(), m.Begin()
	mustGrant(t, m, h, 1, Exclusive)
	g1, g2 := false, false
	m.Acquire(w1, 1, Shared, grantFlag(&g1), func() { t.Fatal("died") })
	m.Acquire(w2, 1, Shared, grantFlag(&g2), func() { t.Fatal("died") })
	m.ReleaseAll(h)
	if !g1 || !g2 {
		t.Fatal("both shared waiters should be granted together")
	}
}

func TestQueuedExclusiveBlocksLaterShared(t *testing.T) {
	// S held; X queued; a later S must not jump the queue (no starvation
	// of writers). The late S must be older than the queued X, or wait-die
	// would kill it rather than let it wait behind a conflicting request.
	m := NewManager()
	sw, xw, h := m.Begin(), m.Begin(), m.Begin()
	mustGrant(t, m, h, 1, Shared)
	xGranted := false
	m.Acquire(xw, 1, Exclusive, grantFlag(&xGranted), func() { t.Fatal("xw died") })
	if xGranted {
		t.Fatal("X granted alongside S")
	}
	sGranted := false
	m.Acquire(sw, 1, Shared, grantFlag(&sGranted), func() { t.Fatal("sw died") })
	if sGranted {
		t.Fatal("S jumped over queued X")
	}
	m.ReleaseAll(h)
	if !xGranted {
		t.Fatal("X not granted after release")
	}
	if sGranted {
		t.Fatal("S granted alongside X")
	}
	m.ReleaseAll(xw)
	if !sGranted {
		t.Fatal("S not granted after X release")
	}
}

func TestReentrantAcquire(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	mustGrant(t, m, tx, 1, Shared)
	mustGrant(t, m, tx, 1, Shared)    // repeat S
	mustGrant(t, m, tx, 1, Exclusive) // sole-holder upgrade
	mustGrant(t, m, tx, 1, Shared)    // S under X
	if mode, ok := m.Holds(tx, 1); !ok || mode != Exclusive {
		t.Fatalf("Holds = %v %v, want X", mode, ok)
	}
}

func TestUpgradeConflictYoungerDies(t *testing.T) {
	m := NewManager()
	older, younger := m.Begin(), m.Begin()
	mustGrant(t, m, older, 1, Shared)
	mustGrant(t, m, younger, 1, Shared)
	died := false
	m.Acquire(younger, 1, Exclusive, func() { t.Fatal("upgrade granted over S holder") }, grantFlag(&died))
	if !died {
		t.Fatal("younger upgrade over older S holder should die")
	}
}

func TestUpgradeWaitsThenGranted(t *testing.T) {
	m := NewManager()
	older, younger := m.Begin(), m.Begin()
	mustGrant(t, m, older, 1, Shared)
	mustGrant(t, m, younger, 1, Shared)
	granted := false
	m.Acquire(older, 1, Exclusive, grantFlag(&granted), func() { t.Fatal("older died") })
	if granted {
		t.Fatal("upgrade granted while another S holder exists")
	}
	m.ReleaseAll(younger)
	if !granted {
		t.Fatal("upgrade not granted after other holder released")
	}
	if mode, _ := m.Holds(older, 1); mode != Exclusive {
		t.Fatalf("mode after upgrade = %v", mode)
	}
}

func TestReleaseAllFreesEverything(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	for i := Item(0); i < 10; i++ {
		mustGrant(t, m, tx, i, Exclusive)
	}
	if m.HeldCount(tx) != 10 {
		t.Fatalf("held = %d", m.HeldCount(tx))
	}
	m.ReleaseAll(tx)
	if m.HeldCount(tx) != 0 {
		t.Fatalf("held after release = %d", m.HeldCount(tx))
	}
	other := m.Begin()
	for i := Item(0); i < 10; i++ {
		mustGrant(t, m, other, i, Exclusive)
	}
}

func TestEndAbandonsQueuedRequests(t *testing.T) {
	m := NewManager()
	w, h := m.Begin(), m.Begin()
	mustGrant(t, m, h, 1, Exclusive)
	m.Acquire(w, 1, Exclusive, func() { t.Fatal("granted after End") }, func() { t.Fatal("died after End") })
	m.End(w)
	m.ReleaseAll(h) // must not fire w's callbacks
}

func TestWaitDiePreventsDeadlockCycle(t *testing.T) {
	// t1 holds A, t2 holds B; t1 wants B (older → waits), t2 wants A
	// (younger → dies). No deadlock possible.
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustGrant(t, m, t1, 'A', Exclusive)
	mustGrant(t, m, t2, 'B', Exclusive)
	t1got := false
	m.Acquire(t1, 'B', Exclusive, grantFlag(&t1got), func() { t.Fatal("older died") })
	died := false
	m.Acquire(t2, 'A', Exclusive, func() { t.Fatal("cycle closed") }, grantFlag(&died))
	if !died {
		t.Fatal("younger must die in the cycle")
	}
	// t2 aborts: releases B → t1 proceeds.
	m.End(t2)
	if !t1got {
		t.Fatal("t1 not granted after t2 aborted")
	}
}

func TestAcquireByUnknownTxPanics(t *testing.T) {
	m := NewManager()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Acquire(999, 1, Shared, func() {}, func() {})
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Error("Mode.String wrong")
	}
}

// wideItems returns a few hundred distinct items spread over the whole
// Item range — negatives, small OIDs, values around and past 2²², and the
// extremes — so the item index grows, collides and wraps.
func wideItems() []Item {
	var items []Item
	for k := Item(0); k < 100; k++ {
		items = append(items, k, -1-k, 1<<22+k, 1<<40+7919*k)
	}
	return append(items, 1<<22-1, math.MaxInt64, math.MinInt64, -1<<40)
}

// indexCoverage records which item-index paths a property run exercised.
type indexCoverage struct {
	grew, collided, wrapShift bool
	// wrapped maps each item whose probe run crossed the end of the table
	// at the previous check to its slot then; size is the table's length
	// then.
	wrapped map[Item]int
	size    int
}

// checkIndex asserts the item index's invariants: its count matches its
// occupied slots, it is at most half full, and every item is found from
// its home slot. It also updates cov; a wrapped item that moved to a
// higher slot without the table growing was back-shifted across the wrap.
func checkIndex(t *testing.T, m *Manager, cov *indexCoverage) {
	t.Helper()
	x := &m.items
	wrapped := map[Item]int{}
	n := 0
	for i, s := range x.slots {
		if s.e == nil {
			continue
		}
		n++
		if got := x.find(s.item); got != i {
			t.Fatalf("item %d in slot %d, but find returns slot %d", s.item, i, got)
		}
		home := x.home(s.item)
		if home != i {
			cov.collided = true
		}
		if i < home {
			wrapped[s.item] = i
		}
		if was, ok := cov.wrapped[s.item]; ok && len(x.slots) == cov.size && i > was {
			cov.wrapShift = true
		}
	}
	if n != x.n || 2*n > len(x.slots) {
		t.Fatalf("index holds %d items, counts %d, in %d slots", n, x.n, len(x.slots))
	}
	if len(x.slots) > itemIndexInit {
		cov.grew = true
	}
	cov.wrapped, cov.size = wrapped, len(x.slots)
}

// checkIndexEmpty asserts the item index holds no item.
func checkIndexEmpty(t *testing.T, m *Manager, when string) {
	t.Helper()
	if m.items.n != 0 {
		t.Fatalf("%s: index counts %d items", when, m.items.n)
	}
	for i, s := range m.items.slots {
		if s.e != nil {
			t.Fatalf("%s: slot %d still holds item %d", when, i, s.item)
		}
	}
}

// Property: under arbitrary interleavings of acquire/release by several
// transactions, the table never grants incompatible modes simultaneously
// and every request is answered exactly once. Narrow trials contend on six
// items; wide trials draw from wideItems with rarer releases, so many
// items are live at once and the item index grows, probes past collisions
// and back-shifts across its wrap (asserted through indexCoverage). The
// index must be empty after every trial's End calls and after a Reset.
func TestPropertyNoIncompatibleGrants(t *testing.T) {
	type key struct {
		tx   TxID
		item Item
	}
	wide := wideItems()
	var cov indexCoverage
	for trial := 0; trial < 60; trial++ {
		isWide := trial >= 30
		nTx, steps, releaseOdds := 4, 200, 3
		if isWide {
			nTx, steps, releaseOdds = 8, 600, 12
		}
		m := NewManager()
		var txs []TxID
		for i := 0; i < nTx; i++ {
			txs = append(txs, m.Begin())
		}
		held := map[key]Mode{}
		answered := 0
		requested := 0
		r := uint64(trial)*2654435761 + 12345
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			return int((r >> 33) % uint64(n))
		}
		for step := 0; step < steps; step++ {
			tx := txs[next(len(txs))]
			if next(releaseOdds) != releaseOdds-1 {
				var item Item
				if isWide {
					item = wide[next(len(wide))]
				} else {
					item = Item(next(6))
				}
				mode := Shared
				if next(2) == 0 {
					mode = Exclusive
				}
				requested++
				m.Acquire(tx, item, mode,
					func() {
						answered++
						held[key{tx, item}] = mode
						// Validate compatibility against other holders.
						for k, hm := range held {
							if k.item != item || k.tx == tx {
								continue
							}
							if mode == Exclusive || hm == Exclusive {
								t.Fatalf("trial %d: incompatible grant %v with %v on %d",
									trial, mode, hm, item)
							}
						}
					},
					func() {
						answered++
						// Wait-die abort: release everything.
						for k := range held {
							if k.tx == tx {
								delete(held, k)
							}
						}
						m.ReleaseAll(tx)
					})
			} else {
				for k := range held {
					if k.tx == tx {
						delete(held, k)
					}
				}
				m.ReleaseAll(tx)
			}
			if isWide {
				checkIndex(t, m, &cov)
			}
		}
		for _, tx := range txs {
			m.End(tx)
		}
		// Queued requests abandoned by End never fire; everything else must
		// have been answered exactly once.
		if answered > requested {
			t.Fatalf("trial %d: %d answers for %d requests", trial, answered, requested)
		}
		checkIndexEmpty(t, m, "after End")

		// Reset with live locks and a queued request must empty it too.
		older, younger := m.Begin(), m.Begin()
		for k := 0; k < 40; k++ {
			m.Acquire(younger, wide[next(len(wide))], Exclusive, func() {}, func() {})
		}
		m.Acquire(older, wide[0], Exclusive, func() {}, func() {})
		m.Reset()
		checkIndexEmpty(t, m, "after Reset")
	}
	if !cov.grew || !cov.collided || !cov.wrapShift {
		t.Fatalf("item index paths not exercised: grew %v, collided %v, back-shift across wrap %v",
			cov.grew, cov.collided, cov.wrapShift)
	}
}

// TestItemTableSizedByLiveItems pins that the lock table is sized by the
// items locked, not by their values: locking item 2²²−1 on a fresh Manager
// allocates a few small tables, not a slice indexed by Item (32 MiB).
func TestItemTableSizedByLiveItems(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewManager()
	tx := m.Begin()
	mustGrant(t, m, tx, 1<<22-1, Exclusive)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Fatalf("locking item 2²²−1 allocated %d B, want < 64 KiB", d)
	}
	m.End(tx)
}

// Regression: wait-die must consider queued requests, not just holders.
// Without the queue check, a cycle H → A → (queue) B → H deadlocks: every
// edge is individually legal against the holders alone. The rule that
// fixes it: a requester younger than a conflicting queued request dies.
func TestYoungerDiesBehindQueuedConflict(t *testing.T) {
	m := NewManager()
	older, holder, younger := m.Begin(), m.Begin(), m.Begin()
	mustGrant(t, m, holder, 1, Exclusive)
	// The older transaction may wait behind the younger holder.
	queued := false
	m.Acquire(older, 1, Exclusive, grantFlag(&queued), func() { t.Fatal("older died") })
	// The youngest must die: it would otherwise wait behind `older`, an
	// old→old wait edge that can close a cycle.
	died := false
	m.Acquire(younger, 1, Exclusive, func() { t.Fatal("granted") }, grantFlag(&died))
	if !died {
		t.Fatal("younger must die behind a conflicting queued request")
	}
	// Shared requests behind shared requests stay batched, not killed.
	m2 := NewManager()
	sOld, sYoung, h2 := m2.Begin(), m2.Begin(), m2.Begin()
	mustGrant(t, m2, h2, 1, Exclusive)
	g1, g2 := false, false
	m2.Acquire(sOld, 1, Shared, grantFlag(&g1), func() { t.Fatal("sOld died") })
	m2.Acquire(sYoung, 1, Shared, grantFlag(&g2), func() { t.Fatal("sYoung died behind compatible S") })
	m2.ReleaseAll(h2)
	if !g1 || !g2 {
		t.Fatal("shared batch not granted")
	}
}

// Regression: the core model livelocked when wait-die admitted queue
// cycles; this drives the same hot-conflict pattern directly on the lock
// table and asserts global progress (bounded total deaths for a bounded
// workload).
func TestHotConflictProgress(t *testing.T) {
	m := NewManager()
	const txns = 200
	completed := 0
	deaths := 0
	for i := 0; i < txns; i++ {
		var runTx func()
		runTx = func() {
			tx := m.Begin()
			granted := 0
			for item := Item(0); item < 3; item++ {
				ok := false
				m.Acquire(tx, item, Exclusive,
					func() { ok = true },
					func() { ok = false })
				if !ok {
					deaths++
					m.End(tx)
					if deaths > 100000 {
						t.Fatal("livelock: unbounded deaths")
					}
					runTx() // retry as a fresh (younger) transaction
					return
				}
				granted++
			}
			if granted == 3 {
				completed++
			}
			m.End(tx)
		}
		runTx()
	}
	if completed != txns {
		t.Fatalf("completed %d of %d", completed, txns)
	}
}
