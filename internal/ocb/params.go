// Package ocb implements the Object Clustering Benchmark (OCB) of Darmont
// et al. (EDBT '98), the generic workload model VOODB embeds (§2 and
// Table 5 of the VLDB paper).
//
// OCB has two halves: a random object base (a schema of NC interlinked
// classes and NO instances forming an object graph) and a random workload
// over it (a mix of set-oriented accesses, simple traversals, hierarchy
// traversals and stochastic traversals). Everything is parameterized; the
// VLDB paper restates the workload parameters it used in Table 5 and we use
// those as defaults. Parameters the VLDB paper does not restate carry
// defaults chosen to reproduce the published database sizes (≈ 20 MB for
// NO = 20000) and are documented as ours.
package ocb

import (
	"fmt"
	"math"
)

// Dist selects a random distribution for one of OCB's random choices.
type Dist uint8

const (
	// Uniform picks each alternative with equal probability.
	Uniform Dist = iota
	// Zipf skews choices toward low ranks with the package's theta.
	Zipf
)

// String returns the distribution name.
func (d Dist) String() string {
	switch d {
	case Uniform:
		return "Uniform"
	case Zipf:
		return "Zipf"
	default:
		return fmt.Sprintf("Dist(%d)", d)
	}
}

// Layout selects the object-base generation scheme and residency model.
//
// The legacy sequential scheme (LayoutEager) is the default and the one
// every hex-pinned golden is generated with: one RNG walk assigns classes
// and references in OID order, so any object's attributes depend on every
// draw before it and the whole base must be materialized. The counter-based
// v2 scheme derives object i's references from an rng.SubSeed(seed, i)
// chained stream instead, which makes derivation order-independent — the
// same base can be materialized eagerly (LayoutEagerV2) or left virtual
// behind a bounded cache (LayoutStream) with bit-identical contents.
type Layout uint8

const (
	// LayoutEager is the legacy sequential generation scheme with a fully
	// materialized base (the default; all paper goldens use it).
	LayoutEager Layout = iota
	// LayoutEagerV2 materializes the counter-based v2 scheme eagerly:
	// O(objects + refs) resident, same contents as LayoutStream.
	LayoutEagerV2
	// LayoutStream keeps only the v2 index resident (per-class counts and
	// prefix-sum OID ranges) and derives objects on demand through a small
	// materialization cache: O(hot-set + classes) resident.
	LayoutStream
)

// String returns the CLI name of the layout.
func (l Layout) String() string {
	switch l {
	case LayoutEager:
		return "eager"
	case LayoutEagerV2:
		return "eagerv2"
	case LayoutStream:
		return "stream"
	default:
		return fmt.Sprintf("Layout(%d)", l)
	}
}

// TxType enumerates OCB's four transaction types (Table 5).
type TxType uint8

const (
	// SetAccess is the set-oriented access: a breadth-first visit of every
	// object reachable from the root within SetDepth levels.
	SetAccess TxType = iota
	// SimpleTraversal is a depth-first visit following every reference
	// down to SimDepth levels.
	SimpleTraversal
	// HierarchyTraversal follows only references of one type (type 0, the
	// hierarchy/inheritance-like links) down to HieDepth levels.
	HierarchyTraversal
	// StochasticTraversal takes StoDepth steps, each following one
	// randomly selected reference of the current object.
	StochasticTraversal
	numTxTypes = 4
)

// String returns the transaction type name.
func (t TxType) String() string {
	switch t {
	case SetAccess:
		return "SetAccess"
	case SimpleTraversal:
		return "SimpleTraversal"
	case HierarchyTraversal:
		return "HierarchyTraversal"
	case StochasticTraversal:
		return "StochasticTraversal"
	default:
		return fmt.Sprintf("TxType(%d)", t)
	}
}

// Params is the OCB parameter set. Field comments give the OCB/VOODB code
// where one exists and the default used in the VLDB paper's experiments.
type Params struct {
	// --- object base parameters ---

	// NC is the number of classes in the schema (paper: 20 or 50).
	NC int
	// MaxNRef is the maximum number of references per class (OCB MAXNREF,
	// default 10); each class draws U[1, MaxNRef] references.
	MaxNRef int
	// BaseSize is the base instance size in bytes (OCB BASESIZE, 50).
	BaseSize int
	// SizeMult caps the per-class instance size multiplier: a class's
	// instance size is BaseSize·U[1, SizeMult] bytes. Ours; the default 31
	// reproduces the paper's ≈ 20 MB on-disk base at NO = 20000.
	SizeMult int
	// NO is the number of instances (paper: 500 … 20000).
	NO int
	// NRefT is the number of reference types (OCB NREFT, 4); type 0 plays
	// the hierarchy role in hierarchy traversals.
	NRefT int
	// TypeZeroBias is the probability that a class reference is of type 0
	// (hierarchy); the remaining mass spreads uniformly over the other
	// types. 0 means uniform over all NRefT types. OCB's schema mixes
	// inheritance and aggregation links with a strong hierarchy backbone;
	// this knob reproduces that density (ours, documented in DESIGN.md).
	TypeZeroBias float64
	// ClassRefDist distributes the target class of each class reference.
	ClassRefDist Dist
	// ClassLocality bounds how far (in class-number distance) a class
	// reference may point (OCB CLOCREF; NC = unrestricted).
	ClassLocality int
	// ObjClassDist distributes instances among classes.
	ObjClassDist Dist
	// ObjRefDist distributes the target instance of each object reference
	// within the target class.
	ObjRefDist Dist
	// ObjectLocality bounds how far (in within-class rank distance) an
	// object reference may point (OCB OLOCREF; NO = unrestricted).
	ObjectLocality int
	// ZipfTheta is the skew used wherever a Dist is Zipf.
	ZipfTheta float64
	// Layout selects the generation scheme and residency model (ours; see
	// the Layout constants and layoutv2.go). The zero value is the legacy
	// eager scheme, so existing parameter sets are unaffected.
	Layout Layout
	// StreamCacheObjects bounds the LayoutStream materialization cache to
	// roughly this many objects (rounded up to a power of two; 0 = default).
	// It only trades recomputation for memory — simulation results are
	// identical at every cache size.
	StreamCacheObjects int

	// --- workload parameters (Table 5) ---

	// ColdN is the number of cold-run transactions excluded from
	// measurements (COLDN, 0).
	ColdN int
	// HotN is the number of measured transactions (HOTN, 1000).
	HotN int
	// PSet is the set-oriented access occurrence probability (0.25).
	PSet float64
	// SetDepth is the set-oriented access depth (3).
	SetDepth int
	// PSimple is the simple traversal occurrence probability (0.25).
	PSimple float64
	// SimDepth is the simple traversal depth (3).
	SimDepth int
	// PHier is the hierarchy traversal occurrence probability (0.25).
	PHier float64
	// HieDepth is the hierarchy traversal depth (5).
	HieDepth int
	// PStoch is the stochastic traversal occurrence probability (0.25).
	PStoch float64
	// StoDepth is the stochastic traversal depth (50).
	StoDepth int
	// RootDist distributes traversal roots over objects.
	RootDist Dist
	// HotRootCount restricts traversal roots to a fixed subset of this
	// many objects, drawn once per database (0 = any object can be a
	// root). This reproduces the paper's DSTC experiment, which "placed
	// the algorithm in favorable conditions" by running very
	// characteristic transactions over a stable working set (§4.4): the
	// implied working set of Table 6 (≈ 1300 objects, post-clustering
	// footprint ≈ 330 pages) requires repeated traversals from a bounded
	// root population. The hot set is derived from the database seed, so
	// independent workload draws share it.
	HotRootCount int
	// WriteProb is the probability that an individual object access is an
	// update. The validation experiments are read-only (0).
	WriteProb float64
	// ThinkTime is the user think time between transactions in ms (0).
	ThinkTime float64
}

// DefaultParams returns the OCB defaults as used by the VLDB paper's
// experiments (Table 5 plus the OCB defaults it references).
func DefaultParams() Params {
	return Params{
		NC:             50,
		MaxNRef:        10,
		BaseSize:       50,
		SizeMult:       31,
		NO:             20000,
		NRefT:          4,
		ClassRefDist:   Uniform,
		ClassLocality:  50,
		ObjClassDist:   Uniform,
		ObjRefDist:     Uniform,
		ObjectLocality: 100, // OCB's OLOCREF-style reference locality
		ZipfTheta:      1,

		ColdN:    0,
		HotN:     1000,
		PSet:     0.25,
		SetDepth: 3,
		PSimple:  0.25,
		SimDepth: 3,
		PHier:    0.25,
		HieDepth: 5,
		PStoch:   0.25,
		StoDepth: 50,
		RootDist: Uniform,
	}
}

// DSTCExperimentParams returns the workload profile of the paper's DSTC
// experiments (§4.4): the mid-size base (NC = 50, NO = 20000) accessed by
// "very characteristic transactions, namely depth-3 hierarchy traversals"
// drawn from a stable hot working set — the paper's "favorable conditions"
// for the clustering algorithm. TypeZeroBias densifies the hierarchy links
// (OCB's schema has a strong hierarchy backbone) and HotRootCount bounds
// the root population; both are calibrated so the Table 7 cluster
// statistics match (≈ 82 clusters of ≈ 13 objects).
func DSTCExperimentParams() Params {
	p := DefaultParams()
	p.TypeZeroBias = 0.40
	p.HotRootCount = 80
	p.HieDepth = 3
	// Clustering pays off when the base is scattered: unrestricted
	// reference locality puts each hot object on its own page initially.
	p.ObjectLocality = p.NO
	return p
}

// MaxNO is the largest object count a base may have: an OID is an int32
// and an Op packs it into 31 bits, so OIDs 0 … MaxNO−1 are representable.
const MaxNO = math.MaxInt32

// NOLimitError reports an NO above MaxNO, which OIDs cannot represent.
type NOLimitError struct{ NO int }

func (e *NOLimitError) Error() string {
	return fmt.Sprintf("ocb: NO = %d exceeds the OID limit MaxNO = %d (OIDs are 31-bit)", e.NO, MaxNO)
}

// MaxInstanceSize is the largest instance size a class may have, in bytes:
// Object.Size is an int32, so BaseSize·SizeMult must not exceed it.
const MaxInstanceSize = math.MaxInt32

// InstanceSizeLimitError reports a BaseSize·SizeMult above MaxInstanceSize,
// which Object.Size cannot hold.
type InstanceSizeLimitError struct{ BaseSize, SizeMult int }

func (e *InstanceSizeLimitError) Error() string {
	return fmt.Sprintf("ocb: BaseSize·SizeMult = %d·%d exceeds the instance-size limit MaxInstanceSize = %d (sizes are int32)",
		e.BaseSize, e.SizeMult, MaxInstanceSize)
}

// MaxNRefT is the largest number of reference types: ClassRef.Type is a
// uint8, so types 0 … MaxNRefT−1 are representable.
const MaxNRefT = 256

// NRefTLimitError reports an NRefT above MaxNRefT, which ClassRef.Type
// cannot represent.
type NRefTLimitError struct{ NRefT int }

func (e *NRefTLimitError) Error() string {
	return fmt.Sprintf("ocb: NRefT = %d exceeds the reference-type limit MaxNRefT = %d (types are 8-bit)", e.NRefT, MaxNRefT)
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	switch {
	case p.NC < 1:
		return fmt.Errorf("ocb: NC = %d, need ≥ 1", p.NC)
	case p.NO > MaxNO:
		return &NOLimitError{NO: p.NO}
	case p.NO < p.NC:
		return fmt.Errorf("ocb: NO = %d < NC = %d (every class needs an instance)", p.NO, p.NC)
	case p.MaxNRef < 1:
		return fmt.Errorf("ocb: MaxNRef = %d, need ≥ 1", p.MaxNRef)
	case p.BaseSize < 1 || p.SizeMult < 1:
		return fmt.Errorf("ocb: BaseSize = %d, SizeMult = %d, need ≥ 1", p.BaseSize, p.SizeMult)
	case p.BaseSize > MaxInstanceSize/p.SizeMult:
		return &InstanceSizeLimitError{BaseSize: p.BaseSize, SizeMult: p.SizeMult}
	case p.NRefT < 1:
		return fmt.Errorf("ocb: NRefT = %d, need ≥ 1", p.NRefT)
	case p.NRefT > MaxNRefT:
		return &NRefTLimitError{NRefT: p.NRefT}
	case p.ColdN < 0 || p.HotN < 1:
		return fmt.Errorf("ocb: ColdN = %d, HotN = %d", p.ColdN, p.HotN)
	case p.WriteProb < 0 || p.WriteProb > 1:
		return fmt.Errorf("ocb: WriteProb = %v outside [0,1]", p.WriteProb)
	case p.ThinkTime < 0:
		return fmt.Errorf("ocb: negative ThinkTime %v", p.ThinkTime)
	case p.ClassLocality < 1 || p.ObjectLocality < 1:
		return fmt.Errorf("ocb: localities must be ≥ 1")
	case p.TypeZeroBias < 0 || p.TypeZeroBias > 1:
		return fmt.Errorf("ocb: TypeZeroBias = %v outside [0,1]", p.TypeZeroBias)
	case p.HotRootCount < 0 || p.HotRootCount > p.NO:
		return fmt.Errorf("ocb: HotRootCount = %d outside [0, NO]", p.HotRootCount)
	case p.SetDepth < 0 || p.SimDepth < 0 || p.HieDepth < 0 || p.StoDepth < 0:
		return fmt.Errorf("ocb: negative traversal depth")
	case p.Layout > LayoutStream:
		return fmt.Errorf("ocb: unknown layout %d", p.Layout)
	case p.StreamCacheObjects < 0:
		return fmt.Errorf("ocb: StreamCacheObjects = %d, need ≥ 0", p.StreamCacheObjects)
	}
	total := p.PSet + p.PSimple + p.PHier + p.PStoch
	if total <= 0 || math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("ocb: transaction probabilities sum to %v, want 1", total)
	}
	for _, pr := range []float64{p.PSet, p.PSimple, p.PHier, p.PStoch} {
		if pr < 0 {
			return fmt.Errorf("ocb: negative transaction probability")
		}
	}
	return nil
}
