package storage

import (
	"repro/internal/disk"
	"repro/internal/ocb"
)

// refBlockLen is the length of one block of the reservation-set arena, in
// int32 entries (32 KiB).
const refBlockLen = 1 << 13

// refSets stores the reservation sets an eager store computed under its
// current placement. Texas asks for the set of every object it loads, and
// most loads repeat an object whose set has not changed since its first
// load, so the set is computed once and copied out after that.
//
// at[o] is 0 until o's set is stored, then 1 + the position of its run in
// the block arena: the set's length, then its pages. A run never straddles
// two blocks. Both numbers fit an int32: past 2^31 pages the page
// directory alone (an int32 per page) would take 8 GiB, and a position
// stays below twice the entries stored (a block's unused tail is shorter
// than the run that opened the next block), at most one per object and
// one per reference of the base.
// at is allocated at the first stored set, so a store that never reserves
// pays nothing for it; clear drops every set when the placement changes
// and retires the blocks in place for the next one.
type refSets struct {
	at     []int32
	blocks [][]int32 // fixed-capacity blocks; [0, used) hold runs
	used   int
}

// get returns o's stored set, and whether there is one.
func (r *refSets) get(o ocb.OID) ([]int32, bool) {
	if int(o) >= len(r.at) || r.at[o] == 0 {
		return nil, false
	}
	pos := int(r.at[o]) - 1
	b := r.blocks[pos/refBlockLen]
	off := pos % refBlockLen
	return b[off+1 : off+1+int(b[off])], true
}

// put stores pages as o's set, sizing at for objects objects at the first
// set after a clear. A set too long for one block is not stored: it is
// recomputed on every call.
func (r *refSets) put(o ocb.OID, pages []disk.PageID, objects int) {
	if len(r.at) == 0 {
		if cap(r.at) < objects {
			r.at = make([]int32, objects)
		} else {
			r.at = r.at[:objects]
			clear(r.at)
		}
	}
	n := 1 + len(pages)
	if n > refBlockLen {
		return
	}
	if r.used == 0 || len(r.blocks[r.used-1])+n > refBlockLen {
		if r.used == len(r.blocks) {
			r.blocks = append(r.blocks, make([]int32, 0, refBlockLen))
		}
		r.used++
	}
	b := &r.blocks[r.used-1]
	r.at[o] = int32((r.used-1)*refBlockLen + len(*b) + 1)
	*b = append(*b, int32(len(pages)))
	for _, p := range pages {
		*b = append(*b, int32(p))
	}
}

// clear drops every stored set, keeping the index and the blocks.
func (r *refSets) clear() {
	r.at = r.at[:0]
	for i := range r.blocks[:r.used] {
		r.blocks[i] = r.blocks[i][:0]
	}
	r.used = 0
}
