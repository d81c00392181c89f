package lock

import (
	"math"
	"runtime"
	"testing"
)

// count returns a granted callback that counts its calls in *n.
func count(n *int) func() { return func() { *n++ } }

// never returns a granted callback that fails the test if it runs.
func never(t *testing.T, why string) func() { return func() { t.Fatal(why) } }

// ask requests item and fails unless the table decides want.
func ask(t *testing.T, m *Manager, tx Tx, item Item, mode Mode, want Outcome, granted func()) {
	t.Helper()
	if got := m.Acquire(tx, item, mode, granted); got != want {
		t.Fatalf("tx %d, %v on %d: %v, want %v", tx.ID(), mode, item, got, want)
	}
}

// mustGrant asks for item and fails unless it is granted at once; the
// callback of a request decided at once never runs.
func mustGrant(t *testing.T, m *Manager, tx Tx, item Item, mode Mode) {
	t.Helper()
	ask(t, m, tx, item, mode, Granted, never(t, "granted callback ran for an immediate grant"))
}

// mustDie asks for item and fails unless the requester loses wait-die.
func mustDie(t *testing.T, m *Manager, tx Tx, item Item, mode Mode) {
	t.Helper()
	ask(t, m, tx, item, mode, Died, never(t, "granted callback ran for a wait-die death"))
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
	mustDie(t, m, t2, 1, Shared)
	if m.Deaths() != 1 {
		t.Errorf("deaths = %d", m.Deaths())
	}
}

func TestOlderWaitsAndIsGranted(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustGrant(t, m, t2, 1, Exclusive) // younger holds
	granted := 0
	ask(t, m, t1, 1, Exclusive, Queued, count(&granted))
	if granted != 0 {
		t.Fatal("granted while conflicting holder exists")
	}
	if m.Waits() != 1 {
		t.Errorf("waits = %d", m.Waits())
	}
	m.ReleaseAll(t2)
	if granted != 1 {
		t.Fatalf("queued request's callback ran %d times on release, want 1", granted)
	}
}

// TestQueuedGrantRunsOnce: a queued request's callback runs exactly once,
// inside the release that grants it, and never again — not on a later
// re-entrant request by its owner, nor at the owner's End.
func TestQueuedGrantRunsOnce(t *testing.T) {
	m := NewManager()
	older, younger := m.Begin(), m.Begin()
	mustGrant(t, m, younger, 1, Exclusive)
	granted := 0
	ask(t, m, older, 1, Exclusive, Queued, count(&granted))
	m.End(younger)
	if granted != 1 {
		t.Fatalf("callback ran %d times at the granting release, want 1", granted)
	}
	if mode, ok := m.Holds(older, 1); !ok || mode != Exclusive {
		t.Fatalf("Holds = %v %v after the queued grant, want X", mode, ok)
	}
	mustGrant(t, m, older, 1, Shared)
	m.End(older)
	if granted != 1 {
		t.Fatalf("callback ran %d times, want 1", granted)
	}
}

func TestFIFOGrantOnRelease(t *testing.T) {
	// Waiters must be older than the holder, or wait-die kills them, so
	// they begin first.
	m := NewManager()
	w1, w2, h := m.Begin(), m.Begin(), m.Begin()
	mustGrant(t, m, h, 5, Exclusive) // youngest holds
	var order []int
	ask(t, m, w1, 5, Shared, Queued, func() { order = append(order, 1) })
	ask(t, m, w2, 5, Shared, Queued, func() { order = append(order, 2) })
	m.ReleaseAll(h)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("grant order = %v, want [1 2]", order)
	}
}

func TestSharedBatchGranted(t *testing.T) {
	m := NewManager()
	w1, w2, h := m.Begin(), m.Begin(), m.Begin()
	mustGrant(t, m, h, 1, Exclusive)
	g1, g2 := 0, 0
	ask(t, m, w1, 1, Shared, Queued, count(&g1))
	ask(t, m, w2, 1, Shared, Queued, count(&g2))
	m.ReleaseAll(h)
	if g1 != 1 || g2 != 1 {
		t.Fatalf("shared waiters granted %d and %d times, want both once", g1, g2)
	}
}

func TestQueuedExclusiveBlocksLaterShared(t *testing.T) {
	// S held; X queued; a later S must not jump the queue (no starvation
	// of writers). The late S must be older than the queued X, or wait-die
	// would kill it rather than let it wait behind a conflicting request.
	m := NewManager()
	sw, xw, h := m.Begin(), m.Begin(), m.Begin()
	mustGrant(t, m, h, 1, Shared)
	xGranted, sGranted := 0, 0
	ask(t, m, xw, 1, Exclusive, Queued, count(&xGranted))
	ask(t, m, sw, 1, Shared, Queued, count(&sGranted))
	m.ReleaseAll(h)
	if xGranted != 1 {
		t.Fatal("X not granted after release")
	}
	if sGranted != 0 {
		t.Fatal("S granted alongside X")
	}
	m.ReleaseAll(xw)
	if sGranted != 1 {
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
	mustDie(t, m, younger, 1, Exclusive)
}

func TestUpgradeWaitsThenGranted(t *testing.T) {
	m := NewManager()
	older, younger := m.Begin(), m.Begin()
	mustGrant(t, m, older, 1, Shared)
	mustGrant(t, m, younger, 1, Shared)
	granted := 0
	ask(t, m, older, 1, Exclusive, Queued, count(&granted))
	m.ReleaseAll(younger)
	if granted != 1 {
		t.Fatalf("upgrade callback ran %d times after the other holder released, want 1", granted)
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
	ask(t, m, w, 1, Exclusive, Queued, never(t, "granted after End"))
	m.End(w)
	m.ReleaseAll(h) // must not fire w's callback
}

func TestWaitDiePreventsDeadlockCycle(t *testing.T) {
	// t1 holds A, t2 holds B; t1 wants B (older → waits), t2 wants A
	// (younger → dies). No deadlock possible.
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustGrant(t, m, t1, 'A', Exclusive)
	mustGrant(t, m, t2, 'B', Exclusive)
	t1got := 0
	ask(t, m, t1, 'B', Exclusive, Queued, count(&t1got))
	mustDie(t, m, t2, 'A', Exclusive)
	// t2 aborts: releases B → t1 proceeds.
	m.End(t2)
	if t1got != 1 {
		t.Fatal("t1 not granted after t2 aborted")
	}
}

// TestAcquireByUnknownTxPanics: Acquire panics on the zero handle and on
// the handle of an ended transaction, whose record is free or begun again
// under a new TxID; the other calls ignore such a handle.
func TestAcquireByUnknownTxPanics(t *testing.T) {
	m := NewManager()
	mustPanic := func(what string, tx Tx) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Acquire on %s: no panic", what)
			}
		}()
		m.Acquire(tx, 2, Shared, func() {})
	}
	ended := m.Begin()
	mustGrant(t, m, ended, 1, Exclusive)
	m.End(ended)
	mustPanic("the zero handle", Tx{})
	mustPanic("an ended handle", ended)
	next := m.Begin()
	if next.rec != ended.rec {
		t.Fatal("the ended transaction's record was not reused")
	}
	mustGrant(t, m, next, 1, Exclusive)
	if _, ok := m.Holds(ended, 1); ok || m.HeldCount(ended) != 0 {
		t.Fatal("an ended handle sees its record's new transaction")
	}
	m.ReleaseAll(ended)
	m.End(ended)
	if m.HeldCount(next) != 1 {
		t.Fatal("ReleaseAll or End on an ended handle released its record's new transaction")
	}
	mustPanic("an ended handle whose record was begun again", ended)
	m.End(next)
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Error("Mode.String wrong")
	}
	if Granted.String() != "granted" || Queued.String() != "queued" || Died.String() != "died" {
		t.Error("Outcome.String wrong")
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

// txByID returns the handle of the live transaction id.
func txByID(m *Manager, id TxID) Tx {
	for _, rec := range m.recs {
		if rec.id == id {
			return Tx{rec: rec, id: id}
		}
	}
	return Tx{}
}

// checkIndex asserts the item index's invariants: its count matches its
// live slots, it is at most half full, every item is found from its home
// slot, only live slots have entries, and the Manager counts them. It also
// updates cov; a wrapped item that moved to a higher slot without the
// table growing was back-shifted across the wrap.
func checkIndex(t *testing.T, m *Manager, cov *indexCoverage) {
	t.Helper()
	x := &m.items
	wrapped := map[Item]int{}
	n, entries := 0, 0
	for i, s := range x.slots {
		if !x.live(i) {
			if s.e != nil {
				t.Fatalf("stale slot %d keeps an entry", i)
			}
			continue
		}
		n++
		if s.e != nil {
			entries++
		} else if mode, ok := m.Holds(txByID(m, s.tx), s.item); !ok || mode != s.mode {
			t.Fatalf("slot %d holds item %d for tx %d in %v, but Holds reads %v %v",
				i, s.item, s.tx, s.mode, mode, ok)
		}
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
	if entries != m.entries {
		t.Fatalf("%d slots have entries, the Manager counts %d", entries, m.entries)
	}
	if len(x.slots) > itemIndexInit {
		cov.grew = true
	}
	cov.wrapped, cov.size = wrapped, len(x.slots)
}

// checkIndexEmpty asserts the item index holds no item, no slot keeps an
// entry and every entry is back in the pool.
func checkIndexEmpty(t *testing.T, m *Manager, when string) {
	t.Helper()
	if m.items.n != 0 || m.entries != 0 {
		t.Fatalf("%s: index counts %d items, %d entries attached", when, m.items.n, m.entries)
	}
	for i, s := range m.items.slots {
		if m.items.live(i) || s.e != nil {
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
		tx   Tx
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
		var txs []Tx
		for i := 0; i < nTx; i++ {
			txs = append(txs, m.Begin())
		}
		held := map[key]Mode{}
		answered := 0
		requested := 0
		// grant records tx's grant and checks it against the other holders.
		grant := func(tx Tx, item Item, mode Mode) {
			answered++
			held[key{tx, item}] = mode
			for k, hm := range held {
				if k.item != item || k.tx == tx {
					continue
				}
				if mode == Exclusive || hm == Exclusive {
					t.Fatalf("trial %d: incompatible grant %v with %v on %d",
						trial, mode, hm, item)
				}
			}
		}
		// release forgets tx's grants and releases its locks.
		release := func(tx Tx) {
			for k := range held {
				if k.tx == tx {
					delete(held, k)
				}
			}
			m.ReleaseAll(tx)
		}
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
				// Only a queued request is answered through its callback,
				// and only once.
				var out Outcome
				calls := 0
				out = m.Acquire(tx, item, mode, func() {
					calls++
					if out != Queued || calls > 1 {
						t.Fatalf("trial %d: callback call %d for a request that %v", trial, calls, out)
					}
					grant(tx, item, mode)
				})
				switch out {
				case Granted:
					grant(tx, item, mode)
				case Died:
					// Wait-die abort: release everything.
					answered++
					release(tx)
				}
			} else {
				release(tx)
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
			m.Acquire(younger, wide[next(len(wide))], Exclusive, func() {})
		}
		m.Acquire(older, wide[0], Exclusive, func() {})
		m.Reset()
		checkIndexEmpty(t, m, "after Reset")
	}
	if !cov.grew || !cov.collided || !cov.wrapShift {
		t.Fatalf("item index paths not exercised: grew %v, collided %v, back-shift across wrap %v",
			cov.grew, cov.collided, cov.wrapShift)
	}
}

// TestLoneLockerReleasesInOneStep: a transaction that is the only locker
// releases by starting a new generation of the item index. No slot stays
// live, and later transactions, older or younger than it, see no stale
// holder. A transaction that is not the only locker releases item by item.
func TestLoneLockerReleasesInOneStep(t *testing.T) {
	m := NewManager()
	older, tx := m.Begin(), m.Begin()
	wide := wideItems()
	for _, item := range wide {
		mustGrant(t, m, tx, item, Exclusive)
	}
	gen := m.items.gen
	m.ReleaseAll(tx)
	if m.items.gen == gen {
		t.Fatal("the only locker's release did not start a new generation")
	}
	checkIndexEmpty(t, m, "after the only locker's release")
	if m.HeldCount(tx) != 0 {
		t.Fatalf("HeldCount = %d after the release", m.HeldCount(tx))
	}
	// A stale exclusive holder would queue the older transaction and kill
	// the younger one.
	younger := m.Begin()
	for k, item := range wide {
		if k%2 == 0 {
			mustGrant(t, m, older, item, Exclusive)
		} else {
			mustGrant(t, m, younger, item, Exclusive)
		}
	}
	checkIndex(t, m, &indexCoverage{})
	gen = m.items.gen
	m.End(older)
	if m.items.gen != gen {
		t.Fatal("a release with another locker left started a new generation")
	}
	checkIndex(t, m, &indexCoverage{})
	m.End(younger)
	checkIndexEmpty(t, m, "after both released")
}

// TestEntryOnlyWhileContended: an item's sole holder lives in its slot; a
// second requester attaches an entry, which is recycled when the item goes
// idle, and the item's next request is inline again.
func TestEntryOnlyWhileContended(t *testing.T) {
	m := NewManager()
	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	attached := func() *entry { return m.items.slots[m.items.find(7)].e }
	mustGrant(t, m, t1, 7, Shared)
	mustGrant(t, m, t1, 7, Exclusive) // a sole holder's upgrade stays inline
	if attached() != nil || m.entries != 0 {
		t.Fatal("a sole holder has an entry")
	}
	if mode, ok := m.Holds(t1, 7); !ok || mode != Exclusive {
		t.Fatalf("Holds = %v %v after the upgrade, want X", mode, ok)
	}
	// t3 is younger than the exclusive holder: it dies, and the item keeps
	// the entry its request attached.
	mustDie(t, m, t3, 7, Shared)
	if attached() == nil || m.entries != 1 {
		t.Fatal("no entry after a second requester")
	}
	m.End(t1)
	if m.entries != 0 || len(m.entryPool) != 1 {
		t.Fatalf("%d entries attached, %d pooled after the item went idle", m.entries, len(m.entryPool))
	}
	checkIndexEmpty(t, m, "after the item went idle")
	mustGrant(t, m, t2, 7, Shared)
	if attached() != nil {
		t.Fatal("the item's next request after going idle is not inline")
	}
	mustGrant(t, m, t3, 7, Shared)
	if attached() == nil {
		t.Fatal("no entry for two shared holders")
	}
	m.End(t2)
	if attached() == nil {
		t.Fatal("the entry was recycled while t3 still holds the item")
	}
	m.End(t3)
	checkIndexEmpty(t, m, "after every holder ended")
}

// TestGenerationWraps: when the item index's generation counter wraps, a
// slot stale since generation 1 must not come back to life, nor may a
// never-used slot (generation 0).
func TestGenerationWraps(t *testing.T) {
	m := NewManager()
	stale := m.Begin()
	mustGrant(t, m, stale, 1, Exclusive)
	m.End(stale) // item 1's slot stays at generation 1
	m.items.gen = math.MaxUint32 - 1
	for _, item := range []Item{2, 3} {
		tx := m.Begin()
		mustGrant(t, m, tx, item, Exclusive)
		m.End(tx)
	}
	if m.items.gen != 1 {
		t.Fatalf("generation %d after the wrap, want 1", m.items.gen)
	}
	checkIndexEmpty(t, m, "after the wrap")
	tx := m.Begin() // younger than every stale holder
	for _, item := range []Item{1, 2, 3} {
		mustGrant(t, m, tx, item, Exclusive)
	}
	checkIndex(t, m, &indexCoverage{})
	m.End(tx)
	checkIndexEmpty(t, m, "after the last release")
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
	ask(t, m, older, 1, Exclusive, Queued, func() {})
	// The youngest must die: it would otherwise wait behind `older`, an
	// old→old wait edge that can close a cycle.
	mustDie(t, m, younger, 1, Exclusive)
	// Shared requests behind shared requests stay batched, not killed.
	m2 := NewManager()
	sOld, sYoung, h2 := m2.Begin(), m2.Begin(), m2.Begin()
	mustGrant(t, m2, h2, 1, Exclusive)
	g1, g2 := 0, 0
	ask(t, m2, sOld, 1, Shared, Queued, count(&g1))
	ask(t, m2, sYoung, 1, Shared, Queued, count(&g2))
	m2.ReleaseAll(h2)
	if g1 != 1 || g2 != 1 {
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
				if m.Acquire(tx, item, Exclusive, func() {}) != Granted {
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
