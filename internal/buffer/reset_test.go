package buffer

import (
	"testing"

	"repro/internal/rng"
)

// replay drives a deterministic access pattern and returns the manager's
// trace-sensitive outcome (hits, misses, evictions, residency).
func replay(m *Manager) [4]uint64 {
	for i := 0; i < 40; i++ {
		m.Access(PageID(i%12), i%5 == 0)
	}
	m.Reserve(13)
	m.InvalidateAll()
	for i := 0; i < 20; i++ {
		m.Access(PageID(i%9), i%3 == 0)
	}
	return [4]uint64{m.Hits(), m.Misses(), m.Evictions(), uint64(m.Len())}
}

// TestManagerResetMatchesFresh pins Manager.Reset: a recycled manager must
// replay an access pattern exactly like a freshly built one, for the
// list-based, counter-based, and randomized policies.
func TestManagerResetMatchesFresh(t *testing.T) {
	for _, name := range PolicyNames() {
		mk := func() *Manager {
			pol, err := NewPolicy(name, rng.NewStream(7, 20), 8)
			if err != nil {
				t.Fatal(err)
			}
			return New(8, pol)
		}
		want := replay(mk())

		m := mk()
		replay(m) // dirty pass
		m.Reset()
		if rs, ok := m.Policy().(Reseeder); ok {
			rs.Reseed(rng.SubSeed(7, 20))
		}
		if m.Len() != 0 || m.Hits() != 0 || m.Misses() != 0 {
			t.Fatalf("%s: reset manager not pristine: len=%d hits=%d misses=%d",
				name, m.Len(), m.Hits(), m.Misses())
		}
		if got := replay(m); got != want {
			t.Errorf("%s: reset manager diverged from fresh: got %v, want %v", name, got, want)
		}
	}
}
