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
