package cluster

import (
	"fmt"
	"slices"

	"repro/internal/ocb"
)

// DSTCParams tunes the DSTC policy. The names follow the phases of Bullat
// & Schneider's description: an observation phase fills per-period
// statistics, a selection phase filters them by thresholds, and a
// clustering phase builds cluster units by walking the filtered link graph
// in decreasing weight order.
type DSTCParams struct {
	// ObservationPeriod is the number of transactions per observation
	// phase; at each phase end the period statistics are consolidated.
	ObservationPeriod int
	// MinUsage is the Tfa threshold: objects accessed fewer times (in the
	// consolidated statistics) are not clustering candidates.
	MinUsage int
	// MinLink is the w threshold: links weaker than this are ignored.
	MinLink int
	// MaxClusterSize caps the number of objects per cluster unit.
	MaxClusterSize int
	// TriggerCandidates arms automatic triggering once at least this many
	// candidate objects exist (0 disables automatic triggering).
	TriggerCandidates int
}

// DefaultDSTCParams returns the tuning used in the paper reproduction
// (calibrated so that the Table 7 cluster statistics match: ≈ 80 clusters
// of ≈ 13 objects for 1000 depth-3 hierarchy traversals over the mid-size
// base).
func DefaultDSTCParams() DSTCParams {
	return DSTCParams{
		ObservationPeriod: 100,
		MinUsage:          2,
		MinLink:           1,
		MaxClusterSize:    32,
		TriggerCandidates: 0,
	}
}

// Validate checks the parameters.
func (p DSTCParams) Validate() error {
	switch {
	case p.ObservationPeriod < 1:
		return fmt.Errorf("cluster: ObservationPeriod = %d", p.ObservationPeriod)
	case p.MinUsage < 1 || p.MinLink < 1:
		return fmt.Errorf("cluster: thresholds must be ≥ 1 (usage %d, link %d)", p.MinUsage, p.MinLink)
	case p.MaxClusterSize < 2:
		return fmt.Errorf("cluster: MaxClusterSize = %d", p.MaxClusterSize)
	case p.TriggerCandidates < 0:
		return fmt.Errorf("cluster: TriggerCandidates = %d", p.TriggerCandidates)
	}
	return nil
}

// DSTC implements the Dynamic, Statistical and Tunable Clustering
// technique: per-period access counting (observation), threshold filtering
// (selection), and weight-ordered cluster-unit construction (clustering).
//
// Every table is recycled: statistics are zeroed in place at a period
// boundary or build, and cluster construction reuses its scratch, so a
// warmed policy observes and builds without allocating.
type DSTC struct {
	params DSTCParams

	// Usage statistics (observation phase). Counts live in a dense slice
	// indexed by OID (grown on demand) plus a touched list for iteration,
	// so a period boundary zeroes only what was used. The consolidated
	// counts use the same layout.
	periodUsage   []int32
	periodTouched []ocb.OID
	periodTx      int
	usage         []int32
	usageTouched  []ocb.OID

	// links counts every transition since the last build or Reset. Links
	// need no period split: consolidation would only add period counts
	// into the consolidated ones, and only BuildClusters reads them.
	links linkTable

	// Cluster-construction scratch, recycled across builds.
	sorted    []weightedLink // filtered links, strongest first
	adj       []adjEntry     // each object's links, strongest first
	adjEnd    []int32        // OID → end of its adjacency (a degree counter while counting)
	adjNext   []int32        // OID → first adjacency entry not yet known to be clustered
	clustered []bool         // OID → already placed in a unit
	linked    []ocb.OID      // objects with at least one filtered link
	units     clusterSet

	observedTx uint64
	builds     int
}

// adjEntry is one filtered link as seen from one of its ends.
type adjEntry struct {
	other  ocb.OID
	weight int
}

// NewDSTC returns a DSTC policy; it panics on invalid parameters (a
// configuration bug, not a runtime condition).
func NewDSTC(params DSTCParams) *DSTC {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	d := &DSTC{params: params}
	d.Reset()
	return d
}

// Name returns "DSTC".
func (d *DSTC) Name() string { return "DSTC" }

// Params returns the tuning in effect.
func (d *DSTC) Params() DSTCParams { return d.params }

// Reset restores the freshly-constructed policy: all statistics and the
// counters (ObservedTransactions, Builds), keeping the recycled backing
// storage.
func (d *DSTC) Reset() {
	d.resetStats()
	d.observedTx = 0
	d.builds = 0
}

// resetStats drops all statistics, ending an observation cycle; the
// counters and the recycled backing storage stay.
func (d *DSTC) resetStats() {
	for _, o := range d.periodTouched {
		d.periodUsage[o] = 0
	}
	d.periodTouched = d.periodTouched[:0]
	for _, o := range d.usageTouched {
		d.usage[o] = 0
	}
	d.usageTouched = d.usageTouched[:0]
	d.links.reset()
	d.periodTx = 0
}

// Observe records one access and, when prev is valid, the transition link
// between prev and o. A link is stored undirected, under its (min, max)
// pair, so both directions of a transition add to one weight.
func (d *DSTC) Observe(o, prev ocb.OID, _ bool) {
	d.periodUsage = growTo(d.periodUsage, int(o)+1)
	if d.periodUsage[o] == 0 {
		d.periodTouched = append(d.periodTouched, o)
	}
	d.periodUsage[o]++
	if prev != ocb.NilRef && prev != o {
		d.links.add(prev, o)
	}
}

// EndTransaction advances the observation phase; at each period boundary
// the period statistics are consolidated.
func (d *DSTC) EndTransaction() {
	d.observedTx++
	d.periodTx++
	if d.periodTx >= d.params.ObservationPeriod {
		d.consolidate()
	}
}

func (d *DSTC) consolidate() {
	for _, o := range d.periodTouched {
		d.usage = growTo(d.usage, int(o)+1)
		if d.usage[o] == 0 {
			d.usageTouched = append(d.usageTouched, o)
		}
		d.usage[o] += d.periodUsage[o]
		d.periodUsage[o] = 0
	}
	d.periodTouched = d.periodTouched[:0]
	d.periodTx = 0
}

// ObservedTransactions returns the number of completed transactions seen.
func (d *DSTC) ObservedTransactions() uint64 { return d.observedTx }

// ShouldTrigger reports whether enough clustering candidates accumulated
// (selection-phase filter applied to the consolidated statistics).
func (d *DSTC) ShouldTrigger() bool {
	if d.params.TriggerCandidates == 0 {
		return false
	}
	candidates := 0
	for _, o := range d.usageTouched {
		if int(d.usage[o]) >= d.params.MinUsage {
			candidates++
			if candidates >= d.params.TriggerCandidates {
				return true
			}
		}
	}
	return false
}

// usageOf returns the consolidated access count of o.
func (d *DSTC) usageOf(o ocb.OID) int {
	if int(o) >= len(d.usage) {
		return 0
	}
	return int(d.usage[o])
}

// BuildClusters runs the selection and clustering phases: drop links
// below MinLink or touching objects below MinUsage, then grow cluster
// units greedily from the strongest links, strongest-neighbor first — the
// placement order of the unit. Statistics are cleared afterwards (DSTC
// starts a fresh observation cycle after reorganizing). The clusters stay
// valid until the next BuildClusters.
func (d *DSTC) BuildClusters() [][]ocb.OID {
	d.consolidate() // fold any partial period in

	links := d.links.appendLinks(d.sorted[:0], d.params.MinLink)
	kept := links[:0]
	for _, l := range links {
		if d.usageOf(l.a) >= d.params.MinUsage && d.usageOf(l.b) >= d.params.MinUsage {
			kept = append(kept, l)
		}
	}
	links = kept
	slices.SortFunc(links, strongerFirst)
	d.sorted = links

	// Adjacency over filtered links: count each object's degree, turn the
	// counts into end offsets, then fill every list back to front from the
	// links in reverse, so each list is strongest first.
	n := int(d.links.maxOID) + 1
	d.adjEnd = growTo(d.adjEnd, n)
	d.adjNext = growTo(d.adjNext, n)
	d.clustered = growTo(d.clustered, n)
	linked := d.linked[:0]
	for _, l := range links {
		for _, o := range [2]ocb.OID{l.a, l.b} {
			if d.adjEnd[o] == 0 {
				linked = append(linked, o)
			}
			d.adjEnd[o]++
		}
	}
	end := int32(0)
	for _, o := range linked {
		end += d.adjEnd[o]
		d.adjEnd[o] = end
		d.adjNext[o] = end
	}
	d.adj = growTo(d.adj, int(end))
	for i := len(links) - 1; i >= 0; i-- {
		l := links[i]
		d.adjNext[l.a]--
		d.adj[d.adjNext[l.a]] = adjEntry{other: l.b, weight: l.weight}
		d.adjNext[l.b]--
		d.adj[d.adjNext[l.b]] = adjEntry{other: l.a, weight: l.weight}
	}

	d.units.reset()
	for _, seed := range links {
		if d.clustered[seed.a] || d.clustered[seed.b] {
			continue
		}
		start := len(d.units.members)
		d.units.members = append(d.units.members, seed.a, seed.b)
		d.clustered[seed.a], d.clustered[seed.b] = true, true
		// Grow: repeatedly attach the strongest unclustered neighbor of
		// any unit member, the smallest OID among equals.
		for len(d.units.members)-start < d.params.MaxClusterSize {
			best := adjEntry{weight: -1}
			for _, m := range d.units.members[start:] {
				if e, ok := d.strongestFree(m); ok &&
					(e.weight > best.weight || (e.weight == best.weight && e.other < best.other)) {
					best = e
				}
			}
			if best.weight < 0 {
				break
			}
			d.units.members = append(d.units.members, best.other)
			d.clustered[best.other] = true
		}
		d.units.closeCluster()
	}

	for _, o := range linked {
		d.adjEnd[o] = 0
		d.clustered[o] = false
	}
	d.linked = linked
	d.builds++
	d.resetStats()
	return d.units.clusters()
}

// strongestFree returns m's strongest link to an object not yet clustered,
// the smallest OID among equals. m's list is sorted strongest first and,
// within a weight, by (min, max) pair, which puts the other ends in
// ascending order (smaller ones pair as (other, m), larger as (m, other));
// so the first unclustered entry is the answer. Objects only ever become
// clustered during a build, so the scan resumes where it last stopped.
func (d *DSTC) strongestFree(m ocb.OID) (adjEntry, bool) {
	i, end := d.adjNext[m], d.adjEnd[m]
	for i < end && d.clustered[d.adj[i].other] {
		i++
	}
	d.adjNext[m] = i
	if i == end {
		return adjEntry{}, false
	}
	return d.adj[i], true
}

// Builds returns how many times BuildClusters ran.
func (d *DSTC) Builds() int { return d.builds }
