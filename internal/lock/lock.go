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
// The table is allocation-free in steady state, following the DESP-C++
// discipline of recycling rather than reallocating: each transaction's
// held locks live in a dense list recycled through a free list (no
// per-transaction maps), lock-table entries carry a small inline holder
// array (most items have at most two holders under wait-die) and are
// themselves recycled, and a release visits only the items the transaction
// queued on instead of sweeping the whole table. The item table holds only
// the items currently locked or queued on, so its size does not depend on
// the range of Items (OIDs) the workload touches.
package lock

import (
	"fmt"
	"math/bits"
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

type request struct {
	tx      TxID
	mode    Mode
	granted func()
	died    func()
}

// holderSlot records one holder of an item.
type holderSlot struct {
	tx   TxID
	mode Mode
}

// inlineHolders is the number of holders an entry stores without spilling
// to the overflow slice. Under wait-die most items have ≤ 2 holders.
const inlineHolders = 2

// entry is the per-item lock state: holders (inline array plus overflow)
// and a FIFO queue of waiting requests. Entries are recycled through the
// Manager's pool when their item becomes idle.
type entry struct {
	inline   [inlineHolders]holderSlot
	nInline  int32
	overflow []holderSlot
	queue    []request
}

// numHolders returns the number of transactions holding the item.
func (e *entry) numHolders() int { return int(e.nInline) + len(e.overflow) }

// findHolder returns the mode tx holds, and whether tx is a holder.
func (e *entry) findHolder(tx TxID) (Mode, bool) {
	for i := int32(0); i < e.nInline; i++ {
		if e.inline[i].tx == tx {
			return e.inline[i].mode, true
		}
	}
	for i := range e.overflow {
		if e.overflow[i].tx == tx {
			return e.overflow[i].mode, true
		}
	}
	return Shared, false
}

// setHolder records tx as holding in mode, updating an existing slot or
// appending a new one (inline first, spilling to overflow).
func (e *entry) setHolder(tx TxID, mode Mode) {
	for i := int32(0); i < e.nInline; i++ {
		if e.inline[i].tx == tx {
			e.inline[i].mode = mode
			return
		}
	}
	for i := range e.overflow {
		if e.overflow[i].tx == tx {
			e.overflow[i].mode = mode
			return
		}
	}
	if e.nInline < inlineHolders {
		e.inline[e.nInline] = holderSlot{tx: tx, mode: mode}
		e.nInline++
		return
	}
	e.overflow = append(e.overflow, holderSlot{tx: tx, mode: mode})
}

// delHolder removes tx from the holders if present. Holder order is not
// observable (compatibility and wait-die checks are order-independent), so
// the hole is filled by the last slot.
func (e *entry) delHolder(tx TxID) {
	for i := int32(0); i < e.nInline; i++ {
		if e.inline[i].tx != tx {
			continue
		}
		if n := len(e.overflow); n > 0 {
			e.inline[i] = e.overflow[n-1]
			e.overflow = e.overflow[:n-1]
		} else {
			e.nInline--
			e.inline[i] = e.inline[e.nInline]
		}
		return
	}
	for i := range e.overflow {
		if e.overflow[i].tx == tx {
			n := len(e.overflow)
			e.overflow[i] = e.overflow[n-1]
			e.overflow = e.overflow[:n-1]
			return
		}
	}
}

// anyExclusiveHolder reports whether any holder is exclusive.
func (e *entry) anyExclusiveHolder() bool {
	for i := int32(0); i < e.nInline; i++ {
		if e.inline[i].mode == Exclusive {
			return true
		}
	}
	for i := range e.overflow {
		if e.overflow[i].mode == Exclusive {
			return true
		}
	}
	return false
}

// anyOlderHolder reports whether some other holder began before tx.
func (e *entry) anyOlderHolder(tx TxID) bool {
	for i := int32(0); i < e.nInline; i++ {
		if h := e.inline[i].tx; h != tx && h < tx {
			return true
		}
	}
	for i := range e.overflow {
		if h := e.overflow[i].tx; h != tx && h < tx {
			return true
		}
	}
	return false
}

// reset clears the entry for reuse, keeping slice capacity.
func (e *entry) reset() {
	e.nInline = 0
	e.overflow = e.overflow[:0]
	e.queue = e.queue[:0]
}

// heldLock is one item a transaction holds, with the item's entry: a held
// item is never idle, so the entry stays filed under it until the release,
// and ReleaseAll needs no index lookup.
type heldLock struct {
	item Item
	e    *entry
	mode Mode
}

// txRec is a transaction's dense lock state: the owning TxID (validating
// its transaction-ring slot), the distinct items it holds (append order;
// sorted at release) and the items it queued on since its last release, so
// ReleaseAll can abandon its queued requests without sweeping the whole
// table. Records are recycled through the Manager's pool.
type txRec struct {
	owner TxID // 0 when the record is pooled (TxIDs start at 1)
	locks []heldLock
	waits []Item
}

// itemSlot is one slot of the item index; e is nil in an empty slot.
type itemSlot struct {
	item Item
	e    *entry
}

// itemIndexInit is the item index's initial slot count (a power of two).
const itemIndexInit = 64

// itemIndex files the entries of the items currently locked or queued on.
// It is open-addressed: linear probing from a Fibonacci-hashed home slot
// over a power-of-two slot array that doubles at half load and never
// shrinks. Deletion back-shifts the rest of the probe run into the hole, so
// no tombstones build up. Its size follows the live items (a few thousand
// at most under admission control), not the largest Item, so a
// million-object base costs the table nothing and Reset sweeps only the
// live high-water mark.
type itemIndex struct {
	slots []itemSlot
	shift uint // 64 − log2(len(slots))
	n     int  // occupied slots
}

// newItemIndex returns an empty index of size slots (a power of two).
func newItemIndex(size int) itemIndex {
	return itemIndex{slots: make([]itemSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// home returns item's first probe slot.
func (x *itemIndex) home(item Item) int {
	return int(uint64(item) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns the slot holding item, or the empty slot that ends item's
// probe run, where an insert would file it.
func (x *itemIndex) find(item Item) int {
	mask := len(x.slots) - 1
	for i := x.home(item); ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.e == nil || s.item == item {
			return i
		}
	}
}

// insert files e under item in slot i, the empty slot find(item) returned,
// doubling the table first if the insert would pass half load.
func (x *itemIndex) insert(i int, item Item, e *entry) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
		i = x.find(item)
	}
	x.slots[i] = itemSlot{item: item, e: e}
	x.n++
}

// grow doubles the slot array and re-files every item.
func (x *itemIndex) grow() {
	old, n := x.slots, x.n
	*x = newItemIndex(2 * len(old))
	x.n = n
	for _, s := range old {
		if s.e != nil {
			x.slots[x.find(s.item)] = s
		}
	}
}

// removeAt deletes the item in slot hole, then walks the rest of its probe
// run, moving back into the hole every item j whose home does not lie
// cyclically in (hole, j], so each remaining item stays reachable from its
// home.
func (x *itemIndex) removeAt(hole int) {
	mask := len(x.slots) - 1
	for j := (hole + 1) & mask; x.slots[j].e != nil; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].item))&mask >= (j-hole)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = itemSlot{}
	x.n--
}

// ringInit is the transaction ring's initial size; it doubles whenever the
// window of concurrently active TxIDs no longer fits collision-free.
const ringInit = 64

// Manager is the lock table. Both index structures are map-free: per-item
// state lives in the open-addressed item index, and active transactions
// live in a power-of-two ring indexed by the TxID's low bits (validated
// against txRec.owner). Maps churn internal buckets under the steady
// begin/lock/commit cycle — a residual byte per operation that plain
// slices do not have.
type Manager struct {
	nextTx TxID
	items  itemIndex // entries of the items locked or queued on
	ring   []*txRec  // active transactions; index = TxID & (len-1)

	entryPool []*entry
	recPool   []*txRec

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

// lookupTx returns tx's record, or nil for unknown/finished transactions.
func (m *Manager) lookupTx(tx TxID) *txRec {
	if len(m.ring) == 0 {
		return nil
	}
	rec := m.ring[uint64(tx)&uint64(len(m.ring)-1)]
	if rec == nil || rec.owner != tx {
		return nil
	}
	return rec
}

// storeTx files rec (owner already set) into the ring, doubling it until
// the active-TxID window fits collision-free. Active transactions are
// bounded by the admission scheduler, and their ID span by the batch, so
// the ring stays small and growth stops after the first batches.
func (m *Manager) storeTx(rec *txRec) {
	if m.ring == nil {
		m.ring = make([]*txRec, ringInit)
	}
	for {
		i := uint64(rec.owner) & uint64(len(m.ring)-1)
		if m.ring[i] == nil {
			m.ring[i] = rec
			return
		}
		m.growRing()
	}
}

// growRing rehashes the active transactions into a ring doubled until they
// place collision-free.
func (m *Manager) growRing() {
	size := 2 * len(m.ring)
retry:
	for {
		next := make([]*txRec, size)
		for _, r := range m.ring {
			if r == nil {
				continue
			}
			j := uint64(r.owner) & uint64(size-1)
			if next[j] != nil {
				size *= 2
				continue retry
			}
			next[j] = r
		}
		m.ring = next
		return
	}
}

// clearTx removes tx from the ring.
func (m *Manager) clearTx(tx TxID) {
	if len(m.ring) == 0 {
		return
	}
	i := uint64(tx) & uint64(len(m.ring)-1)
	if rec := m.ring[i]; rec != nil && rec.owner == tx {
		m.ring[i] = nil
	}
}

// putRec recycles a transaction record.
func (m *Manager) putRec(rec *txRec) {
	rec.owner = 0
	rec.locks = rec.locks[:0]
	rec.waits = rec.waits[:0]
	m.recPool = append(m.recPool, rec)
}

// Reset restores the table to its freshly-constructed state — no items, no
// transactions, TxIDs restarting from 1, zeroed counters — while keeping
// the entry and record pools, the item index, and the transaction ring, so
// a recycled table behaves bit-for-bit like a new one (wait-die compares
// TxIDs, so the ID restart matters) without reallocating. Any leftover
// entries and records are recycled into the pools rather than dropped.
func (m *Manager) Reset() {
	for i, s := range m.items.slots {
		if s.e != nil {
			m.items.slots[i] = itemSlot{}
			m.putEntry(s.e)
		}
	}
	m.items.n = 0
	for i, rec := range m.ring {
		if rec != nil {
			m.ring[i] = nil
			m.putRec(rec)
		}
	}
	m.nextTx = 0
	m.acquisitions, m.waits, m.deaths = 0, 0, 0
	m.queued = 0
}

func (m *Manager) getEntry() *entry {
	if n := len(m.entryPool); n > 0 {
		e := m.entryPool[n-1]
		m.entryPool = m.entryPool[:n-1]
		return e
	}
	return &entry{}
}

func (m *Manager) putEntry(e *entry) {
	e.reset()
	m.entryPool = append(m.entryPool, e)
}

// Begin registers a new transaction and returns its ID; IDs are assigned in
// begin order and double as wait-die timestamps.
func (m *Manager) Begin() TxID {
	m.nextTx++
	tx := m.nextTx
	var rec *txRec
	if n := len(m.recPool); n > 0 {
		rec = m.recPool[n-1]
		m.recPool = m.recPool[:n-1]
	} else {
		rec = &txRec{}
	}
	rec.owner = tx
	rec.locks = rec.locks[:0]
	rec.waits = rec.waits[:0]
	m.storeTx(rec)
	return tx
}

// Holds returns the mode tx holds on item, and whether it holds it at all.
func (m *Manager) Holds(tx TxID, item Item) (Mode, bool) {
	rec := m.lookupTx(tx)
	if rec == nil {
		return Shared, false
	}
	for i := range rec.locks {
		if rec.locks[i].item == item {
			return rec.locks[i].mode, true
		}
	}
	return Shared, false
}

// HeldCount returns the number of items tx currently holds.
func (m *Manager) HeldCount(tx TxID) int {
	rec := m.lookupTx(tx)
	if rec == nil {
		return 0
	}
	return len(rec.locks)
}

// updateHeld records item/mode in tx's held list, updating an existing
// entry or appending. Fresh grants (where the caller knows tx does not
// hold item) append directly instead; this path serves upgrades and
// queued grants, which are rare.
func (rec *txRec) updateHeld(item Item, e *entry, mode Mode) {
	for i := range rec.locks {
		if rec.locks[i].item == item {
			rec.locks[i].mode = mode
			return
		}
	}
	rec.locks = append(rec.locks, heldLock{item: item, e: e, mode: mode})
}

// Acquire requests item in the given mode for tx. Exactly one of granted or
// died is invoked — possibly immediately (before Acquire returns), or later
// when a conflicting holder releases. died means the transaction lost a
// wait-die conflict and must abort (release everything and retry).
func (m *Manager) Acquire(tx TxID, item Item, mode Mode, granted, died func()) {
	if granted == nil || died == nil {
		panic("lock: Acquire with nil callback")
	}
	rec := m.lookupTx(tx)
	if rec == nil {
		panic(fmt.Sprintf("lock: Acquire by unknown transaction %d", tx))
	}
	slot := m.items.find(item)
	e := m.items.slots[slot].e
	if e == nil {
		// A fresh entry has no holders and no queue: the request is
		// always granted immediately.
		e = m.getEntry()
		m.items.insert(slot, item, e)
		e.setHolder(tx, mode)
		rec.locks = append(rec.locks, heldLock{item: item, e: e, mode: mode})
		m.acquisitions++
		granted()
		return
	}

	// Re-entrant cases.
	if have, ok := e.findHolder(tx); ok {
		if have == Exclusive || mode == Shared {
			m.acquisitions++
			granted()
			return
		}
		// Upgrade S → X: immediate if sole holder.
		if e.numHolders() == 1 {
			e.setHolder(tx, Exclusive)
			rec.updateHeld(item, e, Exclusive)
			m.acquisitions++
			granted()
			return
		}
		// Conflicting upgrade: wait-die against the other holders and the
		// queue.
		if m.youngerThanAnyBlocker(e, tx, Exclusive) {
			m.deaths++
			died()
			return
		}
		m.waits++
		m.queued++
		e.queue = append(e.queue, request{tx: tx, mode: Exclusive, granted: granted, died: died})
		rec.waits = append(rec.waits, item)
		return
	}

	if m.compatible(e, tx, mode) && len(e.queue) == 0 {
		e.setHolder(tx, mode)
		rec.locks = append(rec.locks, heldLock{item: item, e: e, mode: mode})
		m.acquisitions++
		granted()
		return
	}
	// Wait-die: a transaction younger than anyone it would wait behind —
	// current holders AND conflicting queued requesters (FIFO queuing
	// makes those blockers too; checking holders alone admits wait cycles
	// through the queue) — dies.
	if m.youngerThanAnyBlocker(e, tx, mode) {
		m.deaths++
		died()
		return
	}
	m.waits++
	m.queued++
	e.queue = append(e.queue, request{tx: tx, mode: mode, granted: granted, died: died})
	rec.waits = append(rec.waits, item)
}

// compatible reports whether tx may take item in mode alongside the current
// holders.
func (m *Manager) compatible(e *entry, _ TxID, mode Mode) bool {
	if e.numHolders() == 0 {
		return true
	}
	if mode == Exclusive {
		return false
	}
	return !e.anyExclusiveHolder()
}

// youngerThanAnyBlocker reports whether tx began after at least one
// transaction it would wait behind: a current holder, or a queued
// requester whose mode conflicts with the new request (compatible shared
// requests are granted as a batch and never block each other). Waiting is
// only permitted behind strictly younger transactions, which makes every
// wait-for edge point old→young and rules out cycles — the wait-die
// guarantee, extended to FIFO queues.
func (m *Manager) youngerThanAnyBlocker(e *entry, tx TxID, mode Mode) bool {
	if e.anyOlderHolder(tx) {
		return true
	}
	for i := range e.queue {
		r := &e.queue[i]
		if r.tx == tx || r.tx >= tx {
			continue
		}
		if mode == Exclusive || r.mode == Exclusive {
			return true
		}
	}
	return false
}

// ReleaseAll drops every lock tx holds (strict 2PL commit/abort) and grants
// whatever queued requests become compatible, in FIFO order per item.
// Requests tx itself still has queued are abandoned first (they would
// never be answered otherwise), so a release never grants tx a lock that
// its record then drops. Items are released in sorted order so the
// dispatch sequence — and hence the whole simulation — is deterministic.
func (m *Manager) ReleaseAll(tx TxID) {
	rec := m.lookupTx(tx)
	if rec == nil {
		return
	}
	m.abandonQueued(tx, rec)
	if m.queued > 0 {
		// With no queued request anywhere, no release can dispatch a grant,
		// so the release order is unobservable and the sort is skipped —
		// the common case in the paper's closed single-user figures.
		sortHeldLocks(rec.locks)
	}
	for i := range rec.locks {
		h := &rec.locks[i]
		h.e.delHolder(tx)
		m.dispatch(h.item, h.e)
	}
	rec.locks = rec.locks[:0]
}

// abandonQueued drops tx's queued requests. Only the items tx queued on
// since its last release are visited.
func (m *Manager) abandonQueued(tx TxID, rec *txRec) {
	for _, item := range rec.waits {
		slot := m.items.find(item)
		e := m.items.slots[slot].e
		if e == nil {
			continue
		}
		filtered := e.queue[:0]
		for _, r := range e.queue {
			if r.tx != tx {
				filtered = append(filtered, r)
			} else {
				m.queued--
			}
		}
		e.queue = filtered
		if e.numHolders() == 0 && len(e.queue) == 0 {
			m.items.removeAt(slot)
			m.putEntry(e)
		}
	}
	rec.waits = rec.waits[:0]
}

// End forgets a finished transaction entirely, after releasing its locks
// and abandoning its queued requests.
func (m *Manager) End(tx TxID) {
	m.ReleaseAll(tx)
	if rec := m.lookupTx(tx); rec != nil {
		m.clearTx(tx)
		m.putRec(rec)
	}
}

// dispatch grants queued compatible requests at the head of item's queue.
func (m *Manager) dispatch(item Item, e *entry) {
	for len(e.queue) > 0 {
		head := e.queue[0]
		if !m.compatible(e, head.tx, head.mode) {
			// An upgrade request whose owner is now the sole holder can
			// proceed even though "compatible" says no.
			if have, ok := e.findHolder(head.tx); ok && have == Shared &&
				head.mode == Exclusive && e.numHolders() == 1 {
				e.popHead()
				m.queued--
				e.setHolder(head.tx, Exclusive)
				m.lookupTx(head.tx).updateHeld(item, e, Exclusive)
				m.acquisitions++
				head.granted()
				continue
			}
			return
		}
		e.popHead()
		m.queued--
		e.setHolder(head.tx, head.mode)
		m.lookupTx(head.tx).updateHeld(item, e, head.mode)
		m.acquisitions++
		head.granted()
	}
	if e.numHolders() == 0 && len(e.queue) == 0 {
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

// sortHeldLocks orders locks ascending by item. Items are distinct, so any
// correct sort yields the same array and the release order stays
// deterministic. It is a hand-specialized hybrid — median-of-three Hoare
// quicksort recursing into the smaller half, insertion sort below 24
// entries — because the generic slices.SortFunc's per-comparison closure
// dispatch dominated commit cost in the transaction-pipeline profile
// (deep traversals hold hundreds of locks, released every commit).
func sortHeldLocks(a []heldLock) {
	for len(a) > 24 {
		m, hi := len(a)/2, len(a)-1
		if a[m].item < a[0].item {
			a[0], a[m] = a[m], a[0]
		}
		if a[hi].item < a[0].item {
			a[0], a[hi] = a[hi], a[0]
		}
		if a[hi].item < a[m].item {
			a[m], a[hi] = a[hi], a[m]
		}
		p := a[m].item
		i, j := 0, hi
		for {
			for a[i].item < p {
				i++
			}
			for a[j].item > p {
				j--
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
		if j+1 < len(a)-(j+1) {
			sortHeldLocks(a[:j+1])
			a = a[j+1:]
		} else {
			sortHeldLocks(a[j+1:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j].item > x.item {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// Acquisitions returns the number of granted requests.
func (m *Manager) Acquisitions() uint64 { return m.acquisitions }

// Waits returns the number of requests that had to queue.
func (m *Manager) Waits() uint64 { return m.waits }

// Deaths returns the number of wait-die aborts.
func (m *Manager) Deaths() uint64 { return m.deaths }
