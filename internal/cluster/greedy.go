package cluster

import (
	"slices"

	"repro/internal/ocb"
)

// GreedyGraph is a simpler dynamic clustering baseline: it records the same
// transition links as DSTC but builds clusters by union-find over links in
// decreasing weight order, without usage-count filtering or ordered unit
// growth. It stands in for the "other clustering strategies" the paper
// plans to compare DSTC against (§5) and gives the benchmarks a second
// CLUSTP module to swap in.
type GreedyGraph struct {
	minLink int
	maxSize int
	links   linkTable

	// Cluster-construction scratch, recycled across builds. Each cluster
	// is a linked list of its members, so a merge relinks instead of
	// copying.
	sorted    []weightedLink
	clusterOf []int32   // OID → cluster index + 1 (0: none)
	nextOf    []ocb.OID // OID → next member of its cluster (NilRef: last)
	lists     []memberList
	units     clusterSet
}

// memberList is one cluster under construction; size 0 marks a cluster
// merged away.
type memberList struct {
	head, tail ocb.OID
	size       int
}

// NewGreedyGraph returns the baseline policy. minLink filters weak links;
// maxSize caps cluster size.
func NewGreedyGraph(minLink, maxSize int) *GreedyGraph {
	if minLink < 1 || maxSize < 2 {
		panic("cluster: bad GreedyGraph parameters")
	}
	return &GreedyGraph{minLink: minLink, maxSize: maxSize}
}

// Name returns "GreedyGraph".
func (g *GreedyGraph) Name() string { return "GreedyGraph" }

// Observe records the transition link.
func (g *GreedyGraph) Observe(o, prev ocb.OID, _ bool) {
	if prev != ocb.NilRef && prev != o {
		g.links.add(prev, o)
	}
}

// EndTransaction is a no-op: the baseline ignores transaction boundaries.
func (g *GreedyGraph) EndTransaction() {}

// ShouldTrigger never triggers automatically; the baseline is run on
// demand.
func (g *GreedyGraph) ShouldTrigger() bool { return false }

// Reset restores the freshly-constructed policy: it drops the statistics,
// keeping the link table's slots.
func (g *GreedyGraph) Reset() { g.links.reset() }

// BuildClusters merges links strongest-first into bounded clusters, in
// the order the clusters were started. The clusters stay valid until the
// next BuildClusters.
func (g *GreedyGraph) BuildClusters() [][]ocb.OID {
	links := g.links.appendLinks(g.sorted[:0], g.minLink)
	slices.SortFunc(links, strongerFirst)
	g.sorted = links

	n := int(g.links.maxOID) + 1
	g.clusterOf = growTo(g.clusterOf, n)
	g.nextOf = growTo(g.nextOf, n)
	lists := g.lists[:0]
	for _, l := range links {
		ca, cb := g.clusterOf[l.a]-1, g.clusterOf[l.b]-1
		switch {
		case ca < 0 && cb < 0:
			lists = append(lists, memberList{head: l.a, tail: l.b, size: 2})
			g.nextOf[l.a], g.nextOf[l.b] = l.b, ocb.NilRef
			g.clusterOf[l.a], g.clusterOf[l.b] = int32(len(lists)), int32(len(lists))
		case cb < 0:
			if lists[ca].size < g.maxSize {
				g.appendMember(&lists[ca], l.b, ca)
			}
		case ca < 0:
			if lists[cb].size < g.maxSize {
				g.appendMember(&lists[cb], l.a, cb)
			}
		case ca != cb && lists[ca].size+lists[cb].size <= g.maxSize:
			// Merge the smaller into the larger.
			if lists[ca].size < lists[cb].size {
				ca, cb = cb, ca
			}
			for o := lists[cb].head; o != ocb.NilRef; o = g.nextOf[o] {
				g.clusterOf[o] = ca + 1
			}
			g.nextOf[lists[ca].tail] = lists[cb].head
			lists[ca].tail = lists[cb].tail
			lists[ca].size += lists[cb].size
			lists[cb].size = 0
		}
	}
	g.lists = lists
	g.links.reset()

	// Emit the surviving clusters, dropping merged-away husks, and clear
	// the membership marks on the way.
	g.units.reset()
	for _, c := range lists {
		if c.size == 0 {
			continue
		}
		for o := c.head; o != ocb.NilRef; o = g.nextOf[o] {
			g.units.members = append(g.units.members, o)
			g.clusterOf[o] = 0
		}
		g.units.closeCluster()
	}
	return g.units.clusters()
}

// appendMember adds o at the tail of cluster c (index ci).
func (g *GreedyGraph) appendMember(c *memberList, o ocb.OID, ci int32) {
	g.nextOf[c.tail] = o
	g.nextOf[o] = ocb.NilRef
	c.tail = o
	c.size++
	g.clusterOf[o] = ci + 1
}
