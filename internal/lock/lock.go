// Package lock implements the Transaction Manager's concurrency-control
// substrate: a strict two-phase lock table with shared/exclusive modes,
// FIFO queuing, and wait-die deadlock prevention.
//
// The VOODB model charges fixed service times for acquisition and release
// (Table 3 GETLOCK/RELLOCK); this package provides the logical behaviour —
// who waits, who is granted, who must abort — while the core model turns
// those outcomes into simulated time. The paper's validation workloads are
// read-only, so conflicts never arise there, but the substrate is complete
// so that write mixes and MULTILVL > 1 behave correctly.
//
// Begin returns a handle (Tx) on the transaction's record, and every later
// call takes that handle, so the table keeps no index of transactions.
// Acquire returns its decision (Granted, Queued or Died), so the requester
// goes on in its own frame. The one callback is a queued request's grant:
// it runs later, inside the release (ReleaseAll or End) of another
// transaction, which goes on granting further requests after the callback
// returns.
//
// The table is allocation-free in steady state, following the DESP-C++
// discipline of recycling rather than reallocating: each transaction's
// record keeps its held locks and the items it queued on in dense lists,
// and records go back to the Manager's free list when their transaction
// ends (no per-transaction maps). A release visits only the items the
// transaction holds or queued on instead of sweeping the whole table. The
// item table holds only the items currently locked or queued on, so its
// size does not depend on the range of Items (OIDs) the workload touches.
//
// An uncontended lock costs one slot of that table, which keeps the item's
// sole holder inline. An entry (holders and FIFO queue) is attached only
// when a second transaction requests the item, and is recycled when the
// item goes idle. A transaction that is the only locker — no entry
// attached, nothing queued, every locked item its own — releases
// everything in one step, by starting a new generation of the table.
package lock

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared locks are compatible with other shared locks.
	Shared Mode = iota
	// Exclusive locks conflict with everything.
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// TxID identifies a transaction within the lock manager. Lower IDs are
// older (wait-die uses begin order as the timestamp).
type TxID int64

// Item is a lockable unit (the VOODB model locks objects by OID).
type Item int64

// request is a queued lock request. It carries its transaction's record,
// so a grant updates the held list without a lookup.
type request struct {
	rec     *txRec
	mode    Mode
	granted func()
}

// Outcome is the lock table's decision on a request.
type Outcome uint8

const (
	// Granted means the lock is held when Acquire returns.
	Granted Outcome = iota
	// Queued means the request waits behind conflicting holders or
	// requests; its granted callback runs when a release grants it.
	Queued
	// Died means the transaction lost a wait-die conflict and must abort
	// (release everything and retry).
	Died
)

// String returns the outcome's name.
func (o Outcome) String() string {
	switch o {
	case Granted:
		return "granted"
	case Queued:
		return "queued"
	case Died:
		return "died"
	default:
		return fmt.Sprintf("Outcome(%d)", o)
	}
}

// holderSlot records one holder of an item.
type holderSlot struct {
	tx   TxID
	mode Mode
}

// entry is the lock state of an item that a second transaction requested:
// its holders and a FIFO queue of waiting requests. Entries are recycled
// through the Manager's pool, with their slices' capacity, when their item
// becomes idle.
type entry struct {
	holders []holderSlot
	queue   []request
}

// holder returns the index of tx's slot among the holders, or -1.
func (e *entry) holder(tx TxID) int {
	for i := range e.holders {
		if e.holders[i].tx == tx {
			return i
		}
	}
	return -1
}

// findHolder returns the mode tx holds, and whether tx is a holder.
func (e *entry) findHolder(tx TxID) (Mode, bool) {
	if i := e.holder(tx); i >= 0 {
		return e.holders[i].mode, true
	}
	return Shared, false
}

// setHolder records tx as holding in mode, updating its slot or appending
// one.
func (e *entry) setHolder(tx TxID, mode Mode) {
	if i := e.holder(tx); i >= 0 {
		e.holders[i].mode = mode
		return
	}
	e.holders = append(e.holders, holderSlot{tx: tx, mode: mode})
}

// delHolder removes tx from the holders if present. Holder order is not
// observable (compatibility and wait-die checks are order-independent), so
// the hole is filled by the last slot.
func (e *entry) delHolder(tx TxID) {
	if i := e.holder(tx); i >= 0 {
		last := len(e.holders) - 1
		e.holders[i] = e.holders[last]
		e.holders = e.holders[:last]
	}
}

// compatible reports whether a request in mode may join the current
// holders.
func (e *entry) compatible(mode Mode) bool {
	if len(e.holders) == 0 {
		return true
	}
	if mode == Exclusive {
		return false
	}
	for i := range e.holders {
		if e.holders[i].mode == Exclusive {
			return false
		}
	}
	return true
}

// youngerThanAnyBlocker reports whether tx began after at least one
// transaction it would wait behind: a current holder, or a queued
// requester whose mode conflicts with the new request (compatible shared
// requests are granted as a batch and never block each other). Waiting is
// only permitted behind strictly younger transactions, which makes every
// wait-for edge point old→young and rules out cycles — the wait-die
// guarantee, extended to FIFO queues.
func (e *entry) youngerThanAnyBlocker(tx TxID, mode Mode) bool {
	for i := range e.holders {
		if e.holders[i].tx < tx {
			return true
		}
	}
	for i := range e.queue {
		r := &e.queue[i]
		if r.rec.id < tx && (mode == Exclusive || r.mode == Exclusive) {
			return true
		}
	}
	return false
}

// reset clears the entry for reuse, keeping slice capacity.
func (e *entry) reset() {
	e.holders = e.holders[:0]
	e.queue = e.queue[:0]
}

// heldLock is one item a transaction holds.
type heldLock struct {
	item Item
	mode Mode
}

// txRec is a transaction's dense lock state: its TxID, the distinct items
// it holds (append order; sorted at release) and the items it queued on
// since its last release, so ReleaseAll can abandon its queued requests
// without sweeping the whole table. Records are recycled through the
// Manager's free list.
type txRec struct {
	id    TxID // 0 while the record is free (TxIDs start at 1)
	locks []heldLock
	waits []Item
}

// Tx is a handle on a begun transaction: its record and its TxID. A handle
// is stale once its transaction has ended or the Manager has been Reset,
// which shows as its record holding another TxID. (TxIDs restart at Reset,
// so a record begun again may carry a stale handle's TxID, and the handle
// then names that transaction.) A stale or zero handle holds nothing:
// Acquire panics on it, and the other calls ignore it.
type Tx struct {
	rec *txRec
	id  TxID
}

// ID returns the transaction's ID, its wait-die timestamp.
func (t Tx) ID() TxID { return t.id }

// record returns t's record, or nil when t is stale or zero.
func (t Tx) record() *txRec {
	if t.rec == nil || t.rec.id != t.id {
		return nil
	}
	return t.rec
}

// itemSlot is one slot of the item index. It is live while gen equals the
// index's generation. A live slot without an entry holds its item's sole
// holder inline (tx, mode); once an entry is attached, the entry keeps
// every holder and tx and mode go unused. Only a live slot has an entry.
type itemSlot struct {
	item Item
	tx   TxID
	e    *entry
	gen  uint32
	mode Mode
}

// itemIndexInit is the item index's initial slot count (a power of two).
const itemIndexInit = 64

// itemIndex files the items currently locked or queued on. It is
// open-addressed: linear probing from a Fibonacci-hashed home slot over a
// power-of-two slot array that doubles at half load and never shrinks.
// Deletion back-shifts the rest of the probe run into the hole, so no
// tombstones build up, and empty drops every item at once by bumping the
// generation. Its size follows the live items (a few thousand at most
// under admission control), not the largest Item, so a million-object
// base costs the table nothing and Reset sweeps only the live high-water
// mark.
type itemIndex struct {
	slots []itemSlot
	shift uint   // 64 − log2(len(slots))
	n     int    // live slots
	gen   uint32 // generation of the live slots; never 0
}

// newItemIndex returns an empty index of size slots (a power of two).
func newItemIndex(size int) itemIndex {
	return itemIndex{slots: make([]itemSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size))), gen: 1}
}

// home returns item's first probe slot.
func (x *itemIndex) home(item Item) int {
	return int(uint64(item) * 0x9E3779B97F4A7C15 >> x.shift)
}

// live reports whether slot i holds an item.
func (x *itemIndex) live(i int) bool { return x.slots[i].gen == x.gen }

// find returns the slot holding item, or the empty slot that ends item's
// probe run, where an insert would file it.
func (x *itemIndex) find(item Item) int {
	slots, gen := x.slots, x.gen
	mask := len(slots) - 1
	for i := x.home(item); ; i = (i + 1) & mask {
		if s := &slots[i]; s.gen != gen || s.item == item {
			return i
		}
	}
}

// insert files item, with tx as its sole holder in mode, in slot i, the
// empty slot find(item) returned, doubling the table first if the insert
// would pass half load. The fields are stored one at a time: a five-field
// struct literal is built on the stack and copied in with wide moves,
// whose loads stall on the narrow stores just made.
func (x *itemIndex) insert(i int, item Item, tx TxID, mode Mode) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
		i = x.find(item)
	}
	s := &x.slots[i]
	s.item = item
	s.tx = tx
	s.mode = mode
	s.e = nil
	s.gen = x.gen
	x.n++
}

// grow doubles the slot array and re-files every item.
func (x *itemIndex) grow() {
	old := x.slots
	x.slots = make([]itemSlot, 2*len(old))
	x.shift--
	for i := range old {
		if old[i].gen == x.gen {
			x.slots[x.find(old[i].item)] = old[i]
		}
	}
}

// empty drops every item in one step: a new generation leaves every slot
// stale. When the counter wraps, a stale slot may carry the new number, so
// every slot is zeroed and the count restarts.
func (x *itemIndex) empty() {
	x.n = 0
	if x.gen++; x.gen == 0 {
		clear(x.slots)
		x.gen = 1
	}
}

// removeAt deletes the item in slot hole, then walks the rest of its probe
// run, moving back into the hole every item j whose home does not lie
// cyclically in (hole, j], so each remaining item stays reachable from its
// home.
func (x *itemIndex) removeAt(hole int) {
	mask := len(x.slots) - 1
	for j := (hole + 1) & mask; x.live(j); j = (j + 1) & mask {
		if (j-x.home(x.slots[j].item))&mask >= (j-hole)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = itemSlot{}
	x.n--
}

// Manager is the lock table. Per-item state lives in the open-addressed
// item index (an entry only for items a second transaction requested), and
// per-transaction state in records that the callers' handles point to.
// Neither is a Go map: maps churn internal buckets under the steady
// begin/lock/commit cycle — a residual byte per operation that plain
// slices do not have.
type Manager struct {
	nextTx TxID
	items  itemIndex // the items locked or queued on

	recs      []*txRec // every record made, live or free
	freeRecs  []*txRec // the records of no live transaction
	entryPool []*entry
	entries   int // entries out of the pool, each attached to a live slot

	acquisitions uint64
	waits        uint64
	deaths       uint64

	// queued is the number of requests currently sitting in some entry's
	// queue (live count; waits above is cumulative). When it is zero no
	// release can dispatch a grant, so ReleaseAll may skip sorting the
	// held-lock list: the release order is unobservable.
	queued int
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{items: newItemIndex(itemIndexInit)}
}

// Reset restores the table to its freshly-constructed state — no items, no
// transactions, TxIDs restarting from 1, zeroed counters — while keeping
// the entry pool, the records and the item index, so a recycled table
// behaves bit-for-bit like a new one (wait-die compares TxIDs, so the ID
// restart matters) without reallocating. Leftover entries go back to the
// pool, and every record to the free list (see Tx for the handles then).
func (m *Manager) Reset() {
	x := &m.items
	for i := range x.slots {
		if e := x.slots[i].e; e != nil {
			m.putEntry(e)
		}
	}
	// Zero every slot, so no stale one keeps an entry pointer.
	clear(x.slots)
	x.n, x.gen = 0, 1
	for _, rec := range m.recs {
		rec.id = 0
		rec.locks = rec.locks[:0]
		rec.waits = rec.waits[:0]
	}
	m.freeRecs = append(m.freeRecs[:0], m.recs...)
	m.nextTx = 0
	m.acquisitions, m.waits, m.deaths = 0, 0, 0
	m.queued = 0
}

func (m *Manager) getEntry() *entry {
	m.entries++
	if n := len(m.entryPool); n > 0 {
		e := m.entryPool[n-1]
		m.entryPool = m.entryPool[:n-1]
		return e
	}
	return &entry{}
}

func (m *Manager) putEntry(e *entry) {
	m.entries--
	e.reset()
	m.entryPool = append(m.entryPool, e)
}

// Begin starts a new transaction and returns its handle. TxIDs are
// assigned in begin order and double as wait-die timestamps.
func (m *Manager) Begin() Tx {
	m.nextTx++
	var rec *txRec
	if n := len(m.freeRecs); n > 0 {
		rec = m.freeRecs[n-1]
		m.freeRecs = m.freeRecs[:n-1]
	} else {
		rec = &txRec{}
		m.recs = append(m.recs, rec)
	}
	rec.id = m.nextTx
	return Tx{rec: rec, id: m.nextTx}
}

// Holds returns the mode tx holds on item, and whether it holds it at all.
func (m *Manager) Holds(tx Tx, item Item) (Mode, bool) {
	if rec := tx.record(); rec != nil {
		for i := range rec.locks {
			if rec.locks[i].item == item {
				return rec.locks[i].mode, true
			}
		}
	}
	return Shared, false
}

// HeldCount returns the number of items tx currently holds.
func (m *Manager) HeldCount(tx Tx) int {
	if rec := tx.record(); rec != nil {
		return len(rec.locks)
	}
	return 0
}

// Locked returns the number of items currently locked or queued on.
func (m *Manager) Locked() int { return m.items.n }

// updateHeld records item/mode in rec's held list, updating an existing
// entry or appending. Fresh grants (where the caller knows rec does not
// hold item) append directly instead; this path serves upgrades and
// queued grants, which are rare.
func (rec *txRec) updateHeld(item Item, mode Mode) {
	for i := range rec.locks {
		if rec.locks[i].item == item {
			rec.locks[i].mode = mode
			return
		}
	}
	rec.locks = append(rec.locks, heldLock{item: item, mode: mode})
}

// Acquire requests item in the given mode for tx and returns the table's
// decision: Granted and Died are final when Acquire returns, and granted is
// not called for them. A Queued request is answered later, by a release
// that grants it: granted then runs exactly once, inside that release (or
// never, if tx ends first). A queued request never dies: wait-die decides
// death when the request is made.
func (m *Manager) Acquire(tx Tx, item Item, mode Mode, granted func()) Outcome {
	if granted == nil {
		panic("lock: Acquire with nil callback")
	}
	rec := tx.record()
	if rec == nil {
		panic(fmt.Sprintf("lock: Acquire by ended or unknown transaction %d", tx.id))
	}
	id := rec.id
	x := &m.items
	i := x.find(item)
	if !x.live(i) {
		// An idle item: the request is granted, and tx becomes the sole
		// holder, inline in the slot.
		x.insert(i, item, id, mode)
		rec.locks = append(rec.locks, heldLock{item: item, mode: mode})
		m.acquisitions++
		return Granted
	}
	s := &x.slots[i]
	e := s.e
	if e == nil {
		if s.tx == id {
			// Re-entrant request by the sole holder; an upgrade S → X
			// is immediate.
			if s.mode == Shared && mode == Exclusive {
				s.mode = Exclusive
				rec.updateHeld(item, Exclusive)
			}
			m.acquisitions++
			return Granted
		}
		// A second transaction: attach an entry, holding the sole holder.
		e = m.getEntry()
		e.setHolder(s.tx, s.mode)
		s.e = e
	}

	// Re-entrant cases.
	if have, ok := e.findHolder(id); ok {
		if have == Exclusive || mode == Shared {
			m.acquisitions++
			return Granted
		}
		// Upgrade S → X: immediate if sole holder.
		if len(e.holders) == 1 {
			e.setHolder(id, Exclusive)
			rec.updateHeld(item, Exclusive)
			m.acquisitions++
			return Granted
		}
		// Conflicting upgrade: it waits or dies as an exclusive request.
		mode = Exclusive
	} else if e.compatible(mode) && len(e.queue) == 0 {
		e.setHolder(id, mode)
		rec.locks = append(rec.locks, heldLock{item: item, mode: mode})
		m.acquisitions++
		return Granted
	}
	// Wait-die: a transaction younger than anyone it would wait behind —
	// current holders AND conflicting queued requesters (FIFO queuing
	// makes those blockers too; checking holders alone admits wait cycles
	// through the queue) — dies.
	if e.youngerThanAnyBlocker(id, mode) {
		m.deaths++
		return Died
	}
	m.waits++
	m.queued++
	e.queue = append(e.queue, request{rec: rec, mode: mode, granted: granted})
	rec.waits = append(rec.waits, item)
	return Queued
}

// ReleaseAll drops every lock tx holds (strict 2PL commit/abort) and grants
// whatever queued requests become compatible, in FIFO order per item.
// Requests tx itself still has queued are abandoned first (they would
// never be answered otherwise), so a release never grants tx a lock that
// its record then drops. Items are released in sorted order so the
// dispatch sequence — and hence the whole simulation — is deterministic.
func (m *Manager) ReleaseAll(tx Tx) {
	if rec := tx.record(); rec != nil {
		m.release(rec)
	}
}

// End forgets a finished transaction entirely, after releasing its locks
// and abandoning its queued requests; its handle goes stale.
func (m *Manager) End(tx Tx) {
	rec := tx.record()
	if rec == nil {
		return
	}
	m.release(rec)
	rec.id = 0
	m.freeRecs = append(m.freeRecs, rec)
}

// release is ReleaseAll on a live record.
func (m *Manager) release(rec *txRec) {
	m.abandonQueued(rec)
	x := &m.items
	if m.entries == 0 && x.n == len(rec.locks) {
		// rec is the only locker: with no entry nothing is queued, so every
		// live slot holds one of its items inline and no grant can follow —
		// the common case in the paper's closed single-user figures.
		x.empty()
		rec.locks = rec.locks[:0]
		return
	}
	if m.queued > 0 {
		// With no queued request anywhere, no release can dispatch a grant,
		// so the release order is unobservable and the sort is skipped.
		// Items are distinct, so any sort yields the same order.
		slices.SortFunc(rec.locks, func(a, b heldLock) int { return cmp.Compare(a.item, b.item) })
	}
	for k := range rec.locks {
		item := rec.locks[k].item
		i := x.find(item)
		if e := x.slots[i].e; e != nil {
			e.delHolder(rec.id)
			m.dispatch(item, e)
		} else {
			x.removeAt(i) // rec was the sole holder
		}
	}
	rec.locks = rec.locks[:0]
}

// abandonQueued drops rec's queued requests. Only the items rec queued on
// since its last release are visited.
func (m *Manager) abandonQueued(rec *txRec) {
	for _, item := range rec.waits {
		slot := m.items.find(item)
		e := m.items.slots[slot].e
		if e == nil {
			continue
		}
		filtered := e.queue[:0]
		for _, r := range e.queue {
			if r.rec != rec {
				filtered = append(filtered, r)
			} else {
				m.queued--
			}
		}
		e.queue = filtered
		if len(e.holders) == 0 && len(e.queue) == 0 {
			m.items.removeAt(slot)
			m.putEntry(e)
		}
	}
	rec.waits = rec.waits[:0]
}

// dispatch grants queued compatible requests at the head of item's queue,
// and recycles the entry if the item is left idle. It looks the item's slot
// up again at the end, since a grant callback may move slots.
func (m *Manager) dispatch(item Item, e *entry) {
	for len(e.queue) > 0 {
		head := e.queue[0]
		mode := head.mode
		if !e.compatible(mode) {
			// An upgrade request whose owner is now the sole holder can
			// proceed even though "compatible" says no.
			have, ok := e.findHolder(head.rec.id)
			if !ok || have != Shared || mode != Exclusive || len(e.holders) != 1 {
				return
			}
		}
		e.popHead()
		m.queued--
		e.setHolder(head.rec.id, mode)
		head.rec.updateHeld(item, mode)
		m.acquisitions++
		head.granted()
	}
	if len(e.holders) == 0 && len(e.queue) == 0 {
		m.items.removeAt(m.items.find(item))
		m.putEntry(e)
	}
}

// popHead removes the head request, compacting in place so the queue's
// backing array survives entry recycling.
func (e *entry) popHead() {
	copy(e.queue, e.queue[1:])
	e.queue[len(e.queue)-1] = request{}
	e.queue = e.queue[:len(e.queue)-1]
}

// Acquisitions returns the number of granted requests.
func (m *Manager) Acquisitions() uint64 { return m.acquisitions }

// Waits returns the number of requests that had to queue.
func (m *Manager) Waits() uint64 { return m.waits }

// Deaths returns the number of wait-die aborts.
func (m *Manager) Deaths() uint64 { return m.deaths }
