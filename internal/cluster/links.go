package cluster

import "repro/internal/ocb"

// linkTable counts undirected transition links between objects. A link is
// keyed by its (min, max) OID pair, so both directions of a transition
// count into one slot. The table is open-addressed with linear probing
// from a Fibonacci hash; it only ever inserts, doubles at half load, and
// is cleared in place, so a warmed table allocates nothing. Key 0 marks an
// empty slot: it would be the pair (0, 0), and a link never joins an
// object to itself.
type linkTable struct {
	keys   []uint64
	counts []int
	used   int
	shift  uint // 64 − log2(len(keys))
	maxOID ocb.OID
}

// minLinkSlots is the table's first size.
const minLinkSlots = 1024

// add counts one transition between a and b (a ≠ b).
func (t *linkTable) add(a, b ocb.OID) {
	if a > b {
		a, b = b, a
	}
	k := uint64(uint32(a))<<32 | uint64(uint32(b))
	if len(t.keys) == 0 {
		t.resize(minLinkSlots)
	}
	mask := len(t.keys) - 1
	for i := int((k * 0x9e3779b97f4a7c15) >> t.shift); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			t.counts[i]++
			return
		case 0:
			if 2*(t.used+1) > len(t.keys) {
				t.resize(2 * len(t.keys))
				t.add(a, b)
				return
			}
			t.keys[i] = k
			t.counts[i] = 1
			t.used++
			t.maxOID = max(t.maxOID, b)
			return
		}
	}
}

// resize rehashes the table into n slots (a power of two).
func (t *linkTable) resize(n int) {
	oldKeys, oldCounts := t.keys, t.counts
	t.keys = make([]uint64, n)
	t.counts = make([]int, n)
	t.shift = 64
	for s := n; s > 1; s >>= 1 {
		t.shift--
	}
	mask := n - 1
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := int((k * 0x9e3779b97f4a7c15) >> t.shift)
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i] = k
		t.counts[i] = oldCounts[j]
	}
}

// reset empties the table, keeping its slots.
func (t *linkTable) reset() {
	if t.used > 0 {
		clear(t.keys)
	}
	t.used = 0
	t.maxOID = 0
}

// appendLinks appends every link counted at least minLink times to dst,
// in slot order.
func (t *linkTable) appendLinks(dst []weightedLink, minLink int) []weightedLink {
	for i, k := range t.keys {
		if k != 0 && t.counts[i] >= minLink {
			dst = append(dst, weightedLink{a: ocb.OID(uint32(k >> 32)), b: ocb.OID(uint32(k)), weight: t.counts[i]})
		}
	}
	return dst
}

// weightedLink is an undirected link (a < b) and its transition count.
type weightedLink struct {
	a, b   ocb.OID
	weight int
}

// strongerFirst orders links by decreasing weight, then by (a, b): the
// deterministic order in which both policies consider them.
func strongerFirst(x, y weightedLink) int {
	switch {
	case x.weight != y.weight:
		return y.weight - x.weight
	case x.a != y.a:
		return int(x.a) - int(y.a)
	default:
		return int(x.b) - int(y.b)
	}
}

// clusterSet is a recycled cluster list: the members of every cluster sit
// in one arena, and the per-cluster slices are cut when a build finishes.
type clusterSet struct {
	members []ocb.OID
	ends    []int // ends[i] is the arena offset just past cluster i
	out     [][]ocb.OID
}

// reset starts a new cluster list, keeping the arena.
func (c *clusterSet) reset() {
	c.members = c.members[:0]
	c.ends = c.ends[:0]
}

// closeCluster ends the cluster whose members were appended since the
// previous close.
func (c *clusterSet) closeCluster() { c.ends = append(c.ends, len(c.members)) }

// clusters cuts the arena into the finished clusters (nil when there are
// none). The result is valid until the next reset.
func (c *clusterSet) clusters() [][]ocb.OID {
	if len(c.ends) == 0 {
		return nil
	}
	out := c.out[:0]
	start := 0
	for _, end := range c.ends {
		out = append(out, c.members[start:end:end])
		start = end
	}
	c.out = out
	return out
}

// growTo extends s to at least n elements. Elements past the old length
// are zero: they are either freshly allocated or were zeroed by their
// owner before its last use ended (lengths only grow).
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	grown := make([]T, n, max(n, 2*cap(s)))
	copy(grown, s)
	return grown
}
