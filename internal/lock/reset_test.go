package lock

import "testing"

// TestManagerReset pins Manager.Reset: TxIDs restart from 1 (wait-die
// compares them, so this is behavior, not cosmetics), all items and
// transactions are forgotten, counters are zeroed, and leftover state —
// including queued requests from an unfinished transaction — is recycled
// rather than leaked into later behavior.
func TestManagerReset(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	mustGrant(t, m, t1, 5, Exclusive)
	mustGrant(t, m, t2, 6, Exclusive)
	// t1 is older than the holder t2, so wait-die queues it behind item 6.
	ask(t, m, t1, 6, Exclusive, Queued, never(t, "queued request granted"))
	if m.Waits() != 1 {
		t.Fatalf("waits = %d, want 1 queued request", m.Waits())
	}
	// Leave both transactions live, locks held, and a request queued:
	// Reset must clean it all up.
	m.Reset()

	if got := m.Begin(); got != 1 {
		t.Fatalf("first TxID after Reset = %d, want 1", got)
	}
	if m.Acquisitions() != 0 || m.Waits() != 0 || m.Deaths() != 0 {
		t.Fatal("counters survived Reset")
	}
	mustGrant(t, m, 1, 5, Exclusive) // item 5 no longer blocked
	if _, held := m.Holds(1, 5); !held {
		t.Fatal("grant not recorded after Reset")
	}
	m.End(1)
}

// TestRingFollowsLiveTransactions pins the transaction ring's size to the
// live transactions, not to the span of TxIDs issued while one of them
// stays live: one transaction holds a lock over 200,000 short ones, so
// their TxIDs wrap onto its ring slot again and again, and the ring must
// stay at its initial 64 slots.
func TestRingFollowsLiveTransactions(t *testing.T) {
	m := NewManager()
	long := m.Begin()
	mustGrant(t, m, long, 1, Shared)
	for i := 0; i < 200000; i++ {
		tx := m.Begin()
		mustGrant(t, m, tx, 2, Exclusive)
		if m.HeldCount(tx) != 1 || m.HeldCount(long) != 1 {
			t.Fatalf("after %d Begins: held counts %d and %d, want 1 and 1", i, m.HeldCount(tx), m.HeldCount(long))
		}
		m.End(tx)
	}
	if len(m.ring) != ringInit {
		t.Errorf("ring has %d slots, want %d", len(m.ring), ringInit)
	}
	if _, held := m.Holds(long, 1); !held {
		t.Error("the long transaction lost its lock")
	}
	m.End(long)
	if m.txLive != 0 {
		t.Errorf("%d transactions left in the ring after every End", m.txLive)
	}
}

// TestRingGrowsWithLiveTransactions keeps 100 transactions live, more than
// half of the initial ring, and ends them out of begin order, so probe runs
// wrap and back-shift: every record must stay reachable until it ends.
func TestRingGrowsWithLiveTransactions(t *testing.T) {
	m := NewManager()
	var txs []TxID
	for i := 0; i < 100; i++ {
		tx := m.Begin()
		mustGrant(t, m, tx, Item(i), Exclusive)
		txs = append(txs, tx)
	}
	if len(m.ring) != 256 {
		t.Errorf("ring has %d slots for 100 live transactions, want 256", len(m.ring))
	}
	for k := 0; k < len(txs); k++ {
		i := (k * 37) % len(txs)
		m.End(txs[i])
		for _, tx := range txs {
			_, held := m.Holds(tx, Item(tx-1))
			if ended := m.lookupTx(tx) == nil; held == ended {
				t.Fatalf("after ending %d of them: transaction %d held=%v ended=%v", k+1, tx, held, ended)
			}
		}
	}
	if m.txLive != 0 {
		t.Errorf("%d transactions left in the ring after every End", m.txLive)
	}
}
