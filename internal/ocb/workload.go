package ocb

import (
	"repro/internal/rng"
)

// Op is one object access within a transaction, packed into 32 bits: the
// low 31 bits hold the object's OID and the sign bit marks update
// accesses. Workloads materialize hundreds of thousands of ops per
// replication, so halving the op footprint (the old struct padded
// OID+bool to 8 bytes) halves the dominant retained workload cost.
type Op int32

// opWriteBit marks an update access.
const opWriteBit = int32(-1 << 31)

// MkOp packs an access to o, as a write when write is set.
func MkOp(o OID, write bool) Op {
	if write {
		return Op(int32(o) | opWriteBit)
	}
	return Op(o)
}

// Object returns the accessed OID.
func (op Op) Object() OID { return OID(int32(op) &^ opWriteBit) }

// Write reports whether the access is an update.
func (op Op) Write() bool { return int32(op) < 0 }

// Transaction is a generated OCB transaction: a typed, ordered sequence of
// object accesses starting at a root. The sequence depends only on the
// object graph, never on storage placement, so it stays valid across
// reorganizations.
type Transaction struct {
	ID   int
	Type TxType
	Root OID
	Ops  []Op
}

// opBlockLen is the capacity of one Op block (256 KiB). Workload op
// sequences are carved out of such blocks instead of one allocation per
// transaction.
const opBlockLen = 1 << 15

// opArena carves transaction op sequences out of blocks it owns, so a
// workload's per-transaction slices cost no allocation in steady state.
// release retires the blocks in place (they are not freed): a long-lived
// Workload refilled every replication reuses one block set for its whole
// lifetime, immune to the GC-clearing that made a sync.Pool re-allocate
// blocks between replications.
type opArena struct {
	blocks []*[]Op // all blocks ever allocated; [0, used) hold live ops
	used   int
}

// place copies ops into the arena and returns the stable, full-capacity
// slice. Sequences longer than a block get a dedicated (unrecycled) copy.
func (a *opArena) place(ops []Op) []Op {
	n := len(ops)
	if n == 0 {
		return nil
	}
	if n > opBlockLen {
		out := make([]Op, n)
		copy(out, ops)
		return out
	}
	var cur *[]Op
	if a.used > 0 {
		cur = a.blocks[a.used-1]
	}
	if cur == nil || len(*cur)+n > cap(*cur) {
		if a.used < len(a.blocks) {
			cur = a.blocks[a.used]
			*cur = (*cur)[:0]
		} else {
			fresh := make([]Op, 0, opBlockLen)
			cur = &fresh
			a.blocks = append(a.blocks, cur)
		}
		a.used++
	}
	off := len(*cur)
	*cur = append(*cur, ops...)
	return (*cur)[off : off+n : off+n]
}

// release retires every block for reuse by the next fill.
func (a *opArena) release() {
	for _, b := range a.blocks[:a.used] {
		*b = (*b)[:0]
	}
	a.used = 0
}

// Generator draws OCB transactions over a database. It is deterministic
// for a given (database, seed).
type Generator struct {
	db        *Database
	src       *rng.Source
	typeDist  *rng.Discrete
	typeWts   [4]float64
	rootZipf  *rng.Zipf
	zipfN     int
	zipfTheta float64
	next      int

	// marks holds one traversal mark bit per object (125 KB at a million
	// objects). It is all clear between traversals: each traversal clears
	// exactly the bits of the ops it emitted, since it marks an object
	// exactly when it emits that object's op.
	marks []uint64

	// scratch accumulates the current transaction's ops; frontA/frontB
	// are the breadth-first frontiers. All are reused across transactions.
	scratch []Op
	frontA  []OID
	frontB  []OID
	// refStack backs per-depth reference copies during depth-first walks
	// over a streaming base, where a RefsOf result does not survive the
	// nested derivations of the recursion. Unused on eager bases.
	refStack []OID
}

// NewGenerator returns a workload generator for db using the database's
// own parameters.
func NewGenerator(db *Database, seed uint64) *Generator {
	g := &Generator{}
	g.Reinit(db, seed)
	return g
}

// Reinit re-targets the generator at db with a fresh stream derived from
// seed, restoring the state NewGenerator(db, seed) would produce while
// reusing the mark bits, the op scratch, the frontier buffers, and —
// when the transaction mix is unchanged — the type sampler. A reinited
// generator draws the exact same transaction sequence as a fresh one.
func (g *Generator) Reinit(db *Database, seed uint64) {
	p := db.Params
	g.db = db
	if g.src == nil {
		g.src = rng.New(rng.SubSeed(seed, 10))
	} else {
		g.src.Reinit(rng.SubSeed(seed, 10))
	}
	wts := [4]float64{p.PSet, p.PSimple, p.PHier, p.PStoch}
	if g.typeDist == nil || wts != g.typeWts {
		g.typeDist = rng.NewDiscrete(g.src, wts[:])
		g.typeWts = wts
	}
	g.next = 0
	if words := (db.NumObjects() + 63) / 64; cap(g.marks) >= words {
		g.marks = g.marks[:words]
	} else {
		g.marks = make([]uint64, words)
	}
	if p.RootDist == Zipf {
		n := db.NumObjects()
		if len(db.HotRoots) > 0 {
			n = len(db.HotRoots)
		}
		// The cdf depends only on (n, theta) and the source pointer is
		// stable across Reinit, so the sampler is rebuilt only when the
		// support changes — like typeDist above, this keeps a Zipf-rooted
		// workload allocation-free on a warmed context.
		if g.rootZipf == nil || g.zipfN != n || g.zipfTheta != p.ZipfTheta {
			g.rootZipf = rng.NewZipf(g.src, n, p.ZipfTheta)
			g.zipfN, g.zipfTheta = n, p.ZipfTheta
		}
	} else {
		g.rootZipf = nil
	}
}

// Next generates the next transaction. The returned ops are freshly
// allocated and owned by the caller; workload-scale generation goes
// through nextInto and an arena instead.
func (g *Generator) Next() Transaction {
	return g.nextInto(nil)
}

// nextInto generates the next transaction, placing its ops in a (if non
// nil) or in a fresh exact-size slice.
func (g *Generator) nextInto(a *opArena) Transaction {
	p := g.db.Params
	tt := TxType(g.typeDist.Next())
	root := g.pickRoot()
	tx := Transaction{ID: g.next, Type: tt, Root: root}
	g.next++
	g.scratch = g.scratch[:0]
	switch tt {
	case SetAccess:
		g.breadthFirst(root, p.SetDepth)
	case SimpleTraversal:
		g.depthFirst(root, p.SimDepth, false)
	case HierarchyTraversal:
		g.depthFirst(root, p.HieDepth, true)
	case StochasticTraversal:
		g.stochastic(root, p.StoDepth)
	}
	tx.Ops = g.commitOps(a)
	return tx
}

// Hierarchy generates a transaction of a fixed type and depth regardless of
// the probability mix — used by the DSTC experiment, which runs "very
// characteristic transactions (namely, depth-3 hierarchy traversals)".
func (g *Generator) Hierarchy(depth int) Transaction {
	return g.hierarchyInto(nil, depth)
}

func (g *Generator) hierarchyInto(a *opArena, depth int) Transaction {
	root := g.pickRoot()
	tx := Transaction{ID: g.next, Type: HierarchyTraversal, Root: root}
	g.next++
	g.scratch = g.scratch[:0]
	g.depthFirst(root, depth, true)
	tx.Ops = g.commitOps(a)
	return tx
}

// commitOps moves the scratch ops into the arena, or copies them into an
// exact-size slice when the transaction is caller-owned.
func (g *Generator) commitOps(a *opArena) []Op {
	if a != nil {
		return a.place(g.scratch)
	}
	if len(g.scratch) == 0 {
		return nil
	}
	out := make([]Op, len(g.scratch))
	copy(out, g.scratch)
	return out
}

func (g *Generator) pickRoot() OID {
	if len(g.db.HotRoots) > 0 {
		if g.rootZipf != nil {
			return g.db.HotRoots[g.rootZipf.Next()]
		}
		return g.db.HotRoots[g.src.Intn(len(g.db.HotRoots))]
	}
	if g.rootZipf != nil {
		return OID(g.rootZipf.Next())
	}
	return OID(g.src.Intn(g.db.NumObjects()))
}

func (g *Generator) seen(o OID) bool { return g.marks[o>>6]&(1<<(o&63)) != 0 }
func (g *Generator) mark(o OID)      { g.marks[o>>6] |= 1 << (o & 63) }

// unmark clears the marks of ops, the ops a traversal emitted.
func (g *Generator) unmark(ops []Op) {
	for _, op := range ops {
		o := op.Object()
		g.marks[o>>6] &^= 1 << (o & 63)
	}
}

func (g *Generator) op(o OID) Op {
	w := g.db.Params.WriteProb > 0 && g.src.Bernoulli(g.db.Params.WriteProb)
	return MkOp(o, w)
}

// breadthFirst visits every object reachable within depth levels, level by
// level (the set-oriented access), appending to the scratch ops.
func (g *Generator) breadthFirst(root OID, depth int) {
	start := len(g.scratch)
	g.scratch = append(g.scratch, g.op(root))
	g.mark(root)
	frontier := append(g.frontA[:0], root)
	next := g.frontB[:0]
	for level := 0; level < depth && len(frontier) > 0; level++ {
		next = next[:0]
		for _, o := range frontier {
			for _, t := range g.db.RefsOf(o) {
				if t == NilRef || g.seen(t) {
					continue
				}
				g.mark(t)
				g.scratch = append(g.scratch, g.op(t))
				next = append(next, t)
			}
		}
		frontier, next = next, frontier
	}
	// Keep whatever grew, whichever role the buffers ended in.
	g.frontA, g.frontB = frontier, next
	g.unmark(g.scratch[start:])
}

// depthFirst visits references in declaration order, preorder, down to
// depth levels, appending to the scratch ops. When hierarchyOnly is set,
// only type-0 references are followed (the hierarchy traversal).
func (g *Generator) depthFirst(root OID, depth int, hierarchyOnly bool) {
	start := len(g.scratch)
	g.dfWalk(root, depth, hierarchyOnly)
	g.unmark(g.scratch[start:])
}

func (g *Generator) dfWalk(o OID, remaining int, hierarchyOnly bool) {
	g.mark(o)
	g.scratch = append(g.scratch, g.op(o))
	if remaining == 0 {
		return
	}
	refs := g.db.RefsOf(o)
	classRefs := g.db.Classes[g.db.ClassOf(o)].Refs
	base := -1
	if g.db.Streaming() {
		// A streaming RefsOf result is only valid until the next RefsOf on
		// the same view, and the recursion below derives other objects.
		// Stack this frame's refs in the shared scratch; a reallocation of
		// refStack leaves outer frames reading their (still live) old
		// backing array, which is fine — frames only read.
		base = len(g.refStack)
		g.refStack = append(g.refStack, refs...)
		refs = g.refStack[base:len(g.refStack):len(g.refStack)]
	}
	for r, t := range refs {
		if t == NilRef || g.seen(t) {
			continue
		}
		if hierarchyOnly && classRefs[r].Type != 0 {
			continue
		}
		g.dfWalk(t, remaining-1, hierarchyOnly)
	}
	if base >= 0 {
		g.refStack = g.refStack[:base]
	}
}

// stochastic takes depth steps, each following one uniformly chosen
// reference of the current object; it stops early at a sink. Objects may
// repeat across steps (only consecutive self-loops are impossible by
// construction); each arrival is an access.
func (g *Generator) stochastic(root OID, depth int) {
	g.scratch = append(g.scratch, g.op(root))
	cur := root
	for step := 0; step < depth; step++ {
		// One RefsOf result is live at a time here, so the streaming
		// cache-aliasing contract is respected without copying.
		refs := g.db.RefsOf(cur)
		// Collect non-nil candidates.
		n := 0
		for _, t := range refs {
			if t != NilRef {
				n++
			}
		}
		if n == 0 {
			break
		}
		k := g.src.Intn(n)
		for _, t := range refs {
			if t == NilRef {
				continue
			}
			if k == 0 {
				cur = t
				break
			}
			k--
		}
		g.scratch = append(g.scratch, g.op(cur))
	}
}

// Workload pre-generates the full transaction stream of a replication:
// ColdN unmeasured transactions followed by HotN measured ones. The op
// sequences live in arena blocks owned by this workload; call Release
// when the workload has been executed to retire them for the next fill.
//
// A Workload is reusable: after Release, GenerateInto (or
// GenerateHierarchyInto) refills it for the next replication, recycling
// the transaction slices and the embedded generator, so a long-lived
// replication context draws workloads with near-zero allocation.
type Workload struct {
	Cold []Transaction
	Hot  []Transaction

	arena opArena
	gen   *Generator
}

// Release retires the workload's op storage in place (the arena keeps its
// blocks for the next fill) and empties the transaction lists, keeping
// their capacity for the next GenerateInto. The released transactions
// (and their Ops slices) must not be used afterwards.
func (w *Workload) Release() {
	w.Cold, w.Hot = w.Cold[:0], w.Hot[:0]
	w.arena.release()
}

// generator returns the embedded generator reinited for (db, seed).
func (w *Workload) generator(db *Database, seed uint64) *Generator {
	if w.gen == nil {
		w.gen = &Generator{}
	}
	w.gen.Reinit(db, seed)
	return w.gen
}

// GenerateInto refills w with the complete stream for one replication,
// exactly as GenerateWorkload draws it, reusing w's storage.
func (w *Workload) GenerateInto(db *Database, seed uint64) {
	g := w.generator(db, seed)
	w.Cold = grown(w.Cold, db.Params.ColdN)
	w.Hot = grown(w.Hot, db.Params.HotN)
	for i := range w.Cold {
		w.Cold[i] = g.nextInto(&w.arena)
	}
	for i := range w.Hot {
		w.Hot[i] = g.nextInto(&w.arena)
	}
}

// GenerateHierarchyInto refills w with n fixed hierarchy traversals of the
// given depth in Hot (Cold stays empty) — the reusable counterpart of
// GenerateHierarchyWorkload, drawing the identical stream.
func (w *Workload) GenerateHierarchyInto(db *Database, seed uint64, n, depth int) {
	g := w.generator(db, seed)
	w.Cold = w.Cold[:0]
	w.Hot = grown(w.Hot, n)
	for i := range w.Hot {
		w.Hot[i] = g.hierarchyInto(&w.arena, depth)
	}
}

// GenerateWorkload draws the complete stream for one replication.
func GenerateWorkload(db *Database, seed uint64) *Workload {
	w := &Workload{}
	w.GenerateInto(db, seed)
	return w
}

// GenerateHierarchyWorkload draws a stream of fixed hierarchy traversals of
// the given depth (the DSTC experiment's workload).
func GenerateHierarchyWorkload(db *Database, seed uint64, n, depth int) []Transaction {
	g := NewGenerator(db, seed)
	txs := make([]Transaction, n)
	for i := range txs {
		txs[i] = g.Hierarchy(depth)
	}
	return txs
}
