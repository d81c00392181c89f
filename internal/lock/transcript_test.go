package lock

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
)

// transcript drives one seeded run of the lock table and hashes everything
// a caller can observe: each Outcome, each grant callback in firing order,
// HeldCount and Holds after each step, and the three counters.
type transcript struct {
	m     *Manager
	items []Item
	h     hash.Hash64
	buf   [8]byte
	r     uint64
	txs   []Tx
	// waiting marks the transactions with a queued request; like the
	// model's transactions, they make no further request until granted.
	waiting map[Tx]bool
}

func (s *transcript) word(v int64) {
	binary.LittleEndian.PutUint64(s.buf[:], uint64(v))
	s.h.Write(s.buf[:])
}

func (s *transcript) next(n int) int {
	s.r = s.r*6364136223846793005 + 1442695040888963407
	return int((s.r >> 33) % uint64(n))
}

// begin replaces slot k of the active set with a new transaction.
func (s *transcript) begin(k int) {
	tx := s.m.Begin()
	s.txs[k] = tx
	s.word(int64(tx.ID()))
}

// end ends the transaction in slot k and begins its replacement.
func (s *transcript) end(k int) {
	delete(s.waiting, s.txs[k])
	s.m.End(s.txs[k])
	s.begin(k)
}

// acquire makes one request for the transaction in slot k. A quarter of
// the requests re-request an item the transaction holds, exclusively, so
// shared holders upgrade.
func (s *transcript) acquire(k int) {
	tx := s.txs[k]
	item := s.items[s.next(len(s.items))]
	mode := Mode(s.next(2))
	if s.next(4) == 0 {
		if held := s.m.HeldCount(tx); held > 0 {
			pick := s.next(held)
			for _, it := range s.items {
				if _, ok := s.m.Holds(tx, it); ok {
					if pick == 0 {
						item, mode = it, Exclusive
						break
					}
					pick--
				}
			}
		}
	}
	out := s.m.Acquire(tx, item, mode, func() {
		delete(s.waiting, tx)
		s.word(-1)
		s.word(int64(tx.ID()))
		s.word(int64(item))
		s.word(int64(mode))
	})
	s.word(int64(out))
	switch out {
	case Queued:
		s.waiting[tx] = true
	case Died:
		// The model aborts a transaction that dies: End, then a new one.
		s.end(k)
	}
}

// observe hashes every active transaction's HeldCount and the mode it
// holds on each item, then the counters.
func (s *transcript) observe() {
	for _, tx := range s.txs {
		s.word(int64(s.m.HeldCount(tx)))
		for _, it := range s.items {
			if mode, ok := s.m.Holds(tx, it); ok {
				s.word(int64(it))
				s.word(int64(mode))
			}
		}
	}
	s.word(int64(s.m.Acquisitions()))
	s.word(int64(s.m.Waits()))
	s.word(int64(s.m.Deaths()))
}

// run plays steps random steps on nTx concurrently active transactions,
// resetting the table halfway through. A step ends or releases a
// transaction with odds of one in releaseOdds each.
func (s *transcript) run(nTx, steps, releaseOdds int) {
	s.txs = make([]Tx, nTx)
	for k := range s.txs {
		s.begin(k)
	}
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			s.m.Reset()
			s.waiting = map[Tx]bool{}
			for k := range s.txs {
				s.begin(k)
			}
		}
		k := s.next(nTx)
		switch r := s.next(releaseOdds); {
		case r == 0:
			s.end(k)
		case r == 1:
			delete(s.waiting, s.txs[k])
			s.m.ReleaseAll(s.txs[k])
		case !s.waiting[s.txs[k]]:
			s.acquire(k)
		}
		s.observe()
	}
	for k := range s.txs {
		s.m.End(s.txs[k])
	}
	s.observe()
}

// TestLockTranscriptDigests pins the lock table's observable behaviour to
// digests: seeded random interleavings of 1, 2 and 8 transactions over six
// items and over wideItems, mixing shared and exclusive requests,
// upgrades, ReleaseAll, End and a Reset partway through. Any change to an
// Outcome, to which grant callbacks fire or in what order, to HeldCount,
// Holds or a counter moves a digest.
func TestLockTranscriptDigests(t *testing.T) {
	six := []Item{0, 1, 2, 3, 4, 5}
	wide := wideItems()
	for _, c := range []struct {
		nTx, steps, releaseOdds int
		wide                    bool
		want                    string
	}{
		{1, 400, 16, false, "392330ddc6d05fd3"},
		{2, 400, 16, false, "e3ca0fd1928b07b9"},
		{8, 400, 16, false, "4bf5d9d7515e3cbd"},
		// Rarer releases keep many wide items live at once, so the item
		// index grows.
		{1, 600, 64, true, "de8fa1c3b9493893"},
		{2, 600, 64, true, "f35cd11da8c7cdd3"},
		{8, 600, 64, true, "f7fe73554c72db92"},
	} {
		items := six
		if c.wide {
			items = wide
		}
		// One table serves every trial, so later trials run on recycled
		// entries, records and index slots.
		m, h := NewManager(), fnv.New64a()
		for trial := 0; trial < 12; trial++ {
			s := &transcript{
				m: m, items: items, h: h,
				r:       uint64(trial)*2654435761 + uint64(c.nTx),
				waiting: map[Tx]bool{},
			}
			s.run(c.nTx, c.steps, c.releaseOdds)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("%d transactions, wide %v: digest %s, want %s", c.nTx, c.wide, got, c.want)
		}
	}
}
