// Package cluster implements the Clustering Manager of the VOODB knowledge
// model (Figure 4): the one component that differs between tested
// optimization algorithms. Policies observe object accesses, decide when a
// reorganization is worthwhile, and produce clusters — ordered groups of
// objects the storage layer will lay out contiguously.
//
// Two dynamic policies are provided: DSTC (Bullat & Schneider, ECOOP '96),
// the technique the paper evaluates, and a greedy graph baseline used for
// comparisons. None disables clustering (Table 3 CLUSTP default).
package cluster

import "repro/internal/ocb"

// Policy is an interchangeable clustering module.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Observe is called after each object access. prev is the previously
	// accessed object of the same transaction (NilRef for the first
	// access); write reports update accesses.
	Observe(o, prev ocb.OID, write bool)
	// EndTransaction marks a transaction boundary.
	EndTransaction()
	// ShouldTrigger reports whether the policy wants an automatic
	// reorganization now (checked between transactions; the paper's
	// "automatic triggering"). Users may also force one externally.
	ShouldTrigger() bool
	// BuildClusters computes the clusters for a reorganization, in
	// placement order, and resets the trigger condition. The result views
	// the policy's recycled scratch: it stays valid until the next
	// BuildClusters or Reset, so a caller that keeps it must copy it.
	BuildClusters() [][]ocb.OID
	// Reset drops all gathered statistics.
	Reset()
}

// FullResetter is implemented by policies that can restore themselves to
// their freshly-constructed state — lifetime counters included, recycled
// storage kept. Policy.Reset deliberately preserves lifetime counters
// (ObservedTransactions, Builds) because it also marks in-run observation
// cycle boundaries; a replication context starting a new replication needs
// the stronger reset.
type FullResetter interface {
	FullReset()
}

// None is the no-clustering policy.
type None struct{}

// Name returns "None".
func (None) Name() string { return "None" }

// Observe is a no-op.
func (None) Observe(_, _ ocb.OID, _ bool) {}

// EndTransaction is a no-op.
func (None) EndTransaction() {}

// ShouldTrigger always reports false.
func (None) ShouldTrigger() bool { return false }

// BuildClusters returns no clusters.
func (None) BuildClusters() [][]ocb.OID { return nil }

// Reset is a no-op.
func (None) Reset() {}

// Summary describes a clustering outcome — the Table 7 metrics.
type Summary struct {
	Clusters       int
	ObjectsInThem  int
	MeanObjPerClus float64
}

// Summarize computes the Table 7 statistics over a cluster set.
func Summarize(clusters [][]ocb.OID) Summary {
	s := Summary{Clusters: len(clusters)}
	for _, c := range clusters {
		s.ObjectsInThem += len(c)
	}
	if s.Clusters > 0 {
		s.MeanObjPerClus = float64(s.ObjectsInThem) / float64(s.Clusters)
	}
	return s
}
