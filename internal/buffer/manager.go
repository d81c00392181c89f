package buffer

import (
	"fmt"
	"slices"
)

// frameState distinguishes loaded pages from reserved ones. Reserved frames
// model Texas's virtual-memory behaviour: address space (and a physical
// frame) is claimed for a page before its content is read from disk.
type frameState uint8

const (
	loaded frameState = iota
	reserved
)

type frame struct {
	page  PageID
	state frameState
	dirty bool
}

// Eviction describes a page pushed out of the buffer. Dirty pages must be
// written back by the caller (the Manager is a pure cache; I/O costing
// belongs to the I/O subsystem).
type Eviction struct {
	Page  PageID
	Dirty bool
}

// AccessResult reports what an Access did.
type AccessResult struct {
	// Hit is true when the page was resident with its content loaded.
	Hit bool
	// WasReserved is true when a frame existed but held no content yet:
	// the caller must still read the page from disk, but no frame was
	// allocated and nothing was evicted.
	WasReserved bool
	// Evicted holds the pages pushed out to make room (at most one for
	// Access; Reserve can also evict at most one). It aliases a scratch
	// buffer owned by the Manager that the next Access or Reserve call
	// overwrites — consume or copy it before touching the buffer again.
	Evicted []Eviction
}

// Manager is a fixed-capacity page buffer with a pluggable replacement
// policy and dirty-page tracking.
//
// The resident pages sit in frames 0…Len()−1 in fill order: a miss takes
// the next unused frame or, when the buffer is full, the policy's victim
// frame, and frames empty only all at once. frameOf maps a page to its
// frame in 4 bytes per page (page identifiers are dense in [0, NumPages)).
type Manager struct {
	capacity int
	policy   Policy
	frames   []frame // resident pages in fill order, sized by SizePages
	frameOf  []int32 // indexed by PageID: frame + 1, 0 when not resident

	// coldIns inserts reserved frames at the eviction end instead of the
	// hot end. It is the policy itself when SetReserveCold selected cold
	// insertion and the policy supports it, nil otherwise. Hot insertion
	// models a VM that treats freshly reserved pages like any fault-in
	// (Texas); cold insertion models an OS that reclaims never-touched
	// pages first. It is resolved once, not asserted per reservation: the
	// runtime's cache of an interface assertion allocates when it grows.
	coldIns ColdInserter

	hits       uint64
	misses     uint64
	evictions  uint64
	writebacks uint64

	// evScratch backs AccessResult.Evicted, recycled across calls so an
	// eviction costs no allocation.
	evScratch []Eviction
}

// SetReserveCold selects cold insertion for reserved frames, when the
// policy supports it.
func (m *Manager) SetReserveCold(cold bool) {
	m.coldIns = nil
	if cold {
		m.coldIns, _ = m.policy.(ColdInserter)
	}
}

// New returns a Manager holding at most capacity pages. It panics if
// capacity < 1 or policy is nil.
func New(capacity int, policy Policy) *Manager {
	if capacity < 1 {
		panic(fmt.Sprintf("buffer: capacity %d", capacity))
	}
	if policy == nil {
		panic("buffer: nil policy")
	}
	return &Manager{
		capacity: capacity,
		policy:   policy,
	}
}

// SizePages sizes the page table for pages 0…n−1, and the frame table for
// the min(capacity, n) frames those pages can fill, in one allocation
// each, so a fresh model does not grow them by append as its pages first
// appear. The model passes its store's page count; pages past it (those a
// reorganization appends) still grow both tables on demand.
func (m *Manager) SizePages(n int) {
	if n > len(m.frameOf) {
		m.frameOf = slices.Grow(m.frameOf, n-len(m.frameOf))[:n]
	}
	if f := min(m.capacity, n); f > cap(m.frames) {
		m.frames = slices.Grow(m.frames, f-len(m.frames))
	}
}

// lookup returns the frame holding p, or -1 when p is not resident.
func (m *Manager) lookup(p PageID) int32 {
	if p >= 0 && int(p) < len(m.frameOf) {
		return m.frameOf[p] - 1
	}
	return -1
}

// place puts the non-resident page p in a frame — the next unused one, or
// the policy's victim when the buffer is full — and reports the eviction.
// It panics on a negative page (disk.None must never reach the buffer).
func (m *Manager) place(p PageID, state frameState, dirty bool) (int32, AccessResult) {
	if p < 0 {
		panic(fmt.Sprintf("buffer: negative page %d", p))
	}
	if need := int(p) + 1; need > len(m.frameOf) {
		m.frameOf = append(m.frameOf, make([]int32, need-len(m.frameOf))...)
	}
	m.evScratch = m.evScratch[:0]
	var f int32
	if len(m.frames) < m.capacity {
		f = int32(len(m.frames))
		m.frames = append(m.frames, frame{})
	} else {
		f = m.policy.Victim()
		v := m.frames[f]
		m.frameOf[v.page] = 0
		wb := v.state == loaded && v.dirty
		m.evictions++
		if wb {
			m.writebacks++
		}
		m.evScratch = append(m.evScratch, Eviction{Page: v.page, Dirty: wb})
	}
	m.frames[f] = frame{page: p, state: state, dirty: dirty}
	m.frameOf[p] = f + 1
	return f, AccessResult{Evicted: m.evScratch}
}

// Capacity returns the frame count.
func (m *Manager) Capacity() int { return m.capacity }

// Len returns the number of resident frames (loaded + reserved).
func (m *Manager) Len() int { return len(m.frames) }

// Policy returns the replacement policy in use.
func (m *Manager) Policy() Policy { return m.policy }

// Contains reports whether p is resident with loaded content.
func (m *Manager) Contains(p PageID) bool {
	f := m.lookup(p)
	return f >= 0 && m.frames[f].state == loaded
}

// IsReserved reports whether p has a reserved (content-less) frame.
func (m *Manager) IsReserved(p PageID) bool {
	f := m.lookup(p)
	return f >= 0 && m.frames[f].state == reserved
}

// Access requests page p, marking it dirty when write is true. On a miss a
// frame is allocated (evicting a victim if the buffer is full) and the page
// is considered loaded afterwards; the caller is responsible for charging
// the disk read. Accessing a reserved frame loads it in place: a miss with
// no eviction.
func (m *Manager) Access(p PageID, write bool) AccessResult {
	if f := m.lookup(p); f >= 0 {
		fr := &m.frames[f]
		m.policy.Touched(f)
		if write {
			fr.dirty = true
		}
		if fr.state == loaded {
			m.hits++
			return AccessResult{Hit: true}
		}
		fr.state = loaded
		m.misses++
		return AccessResult{WasReserved: true}
	}
	m.misses++
	f, res := m.place(p, loaded, write)
	m.policy.Inserted(f, p)
	return res
}

// Reserve claims a frame for p without loading content. It is a no-op if p
// is already resident (loaded or reserved). A reservation can evict a
// victim, exactly like a miss — this is the Texas memory-pressure
// mechanism. Insertion position follows SetReserveCold.
func (m *Manager) Reserve(p PageID) AccessResult {
	if m.lookup(p) >= 0 {
		return AccessResult{Hit: true}
	}
	f, res := m.place(p, reserved, false)
	if m.coldIns != nil {
		m.coldIns.InsertedCold(f, p)
	} else {
		m.policy.Inserted(f, p)
	}
	return res
}

// MarkDirty marks a resident loaded page dirty; it reports whether the page
// was resident.
func (m *Manager) MarkDirty(p PageID) bool {
	f := m.lookup(p)
	if f < 0 || m.frames[f].state != loaded {
		return false
	}
	m.frames[f].dirty = true
	return true
}

// InvalidateAll empties the buffer without writing anything back: the
// caller has either lost the content (a failure) or made it stale (a
// reorganization).
func (m *Manager) InvalidateAll() {
	for _, fr := range m.frames {
		m.frameOf[fr.page] = 0
	}
	m.frames = m.frames[:0]
	m.policy.Reset()
}

// Hits returns the hit count since the last ResetStats.
func (m *Manager) Hits() uint64 { return m.hits }

// Misses returns the miss count (reserved-frame loads included).
func (m *Manager) Misses() uint64 { return m.misses }

// Evictions returns the number of evicted frames.
func (m *Manager) Evictions() uint64 { return m.evictions }

// Writebacks returns the number of dirty evictions.
func (m *Manager) Writebacks() uint64 { return m.writebacks }

// HitRatio returns hits/(hits+misses), 0 when no accesses happened.
func (m *Manager) HitRatio() float64 {
	total := m.hits + m.misses
	if total == 0 {
		return 0
	}
	return float64(m.hits) / float64(total)
}

// ResetStats zeroes the counters without touching buffer contents.
func (m *Manager) ResetStats() {
	m.hits, m.misses, m.evictions, m.writebacks = 0, 0, 0, 0
}

// Reset restores the manager to its freshly-constructed state — empty
// buffer, pristine policy, zeroed counters — while keeping the frame and
// page tables' storage, so a recycled manager behaves bit-for-bit like a
// new one without reallocating.
func (m *Manager) Reset() {
	m.InvalidateAll()
	m.hits, m.misses, m.evictions, m.writebacks = 0, 0, 0, 0
	m.evScratch = m.evScratch[:0]
}
