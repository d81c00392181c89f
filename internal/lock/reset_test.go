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

	if _, held := m.Holds(t1, 5); held || m.HeldCount(t2) != 0 {
		t.Fatal("a handle from before Reset still holds its locks")
	}
	tx := m.Begin()
	if got := tx.ID(); got != 1 {
		t.Fatalf("first TxID after Reset = %d, want 1", got)
	}
	if m.Acquisitions() != 0 || m.Waits() != 0 || m.Deaths() != 0 {
		t.Fatal("counters survived Reset")
	}
	mustGrant(t, m, tx, 5, Exclusive) // item 5 no longer blocked
	if _, held := m.Holds(tx, 5); !held {
		t.Fatal("grant not recorded after Reset")
	}
	m.End(tx)
	if len(m.recs) != 2 || len(m.freeRecs) != 2 {
		t.Fatalf("%d records, %d free after Reset and one transaction, want 2 and 2", len(m.recs), len(m.freeRecs))
	}
}

// TestRecordPoolFollowsLiveTransactions bounds the Manager's records by
// the transactions live at once, not by those begun: one transaction
// holds a lock over 200,000 short ones, and the Manager must end with at
// most 2 records.
func TestRecordPoolFollowsLiveTransactions(t *testing.T) {
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
	if len(m.recs) > 2 {
		t.Errorf("%d records after one live and 200,000 short transactions, want at most 2", len(m.recs))
	}
	if _, held := m.Holds(long, 1); !held {
		t.Error("the long transaction lost its lock")
	}
	m.End(long)
	if len(m.freeRecs) != len(m.recs) {
		t.Errorf("%d of %d records free after every End", len(m.freeRecs), len(m.recs))
	}
}
