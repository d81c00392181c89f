package core

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/ocb"
	"repro/internal/storage"
)

// Exact buffer oracles. One user's read-only batch without prefetch,
// reservations, clustering or failures references its pages in an order
// no buffer decision changes: each op's pages (Store.Pages), op after op.
// So that one trace gives LRU's misses at every frame count, by Mattson's
// stack distances (Mattson, Gecsei, Slutz & Traiger, IBM Systems Journal
// 1970), and Belady's MIN (IBM Systems Journal 1966) bounds every policy
// from below. Where a batch's trace depends on the buffer (Texas
// reservations, swizzle-dirty pages, prefetch, interleaved users), these
// oracles do not apply.

// pageTrace returns the page-reference string of txs on store.
func pageTrace(store *storage.Store, txs []ocb.Transaction) []disk.PageID {
	var trace []disk.PageID
	for i := range txs {
		for _, op := range txs[i].Ops {
			first, span := store.Pages(op.Object())
			for j := 0; j < span; j++ {
				trace = append(trace, first+disk.PageID(j))
			}
		}
	}
	return trace
}

// lruMissCurve returns LRU's misses on trace for every frame count c:
// curve[c] for c below the number of distinct pages, curve[len-1] (the
// cold misses) beyond. One pass computes every reference's stack distance
// with a Fenwick tree that holds a 1 at each page's last-use time
// (Bennett & Kruskal 1975): the distinct pages used since a page's last
// use are the 1s after it. LRU with c frames misses a reference exactly
// when its distance exceeds c.
func lruMissCurve(trace []disk.PageID) []uint64 {
	n := len(trace)
	tree := make([]int, n+1)
	add := func(i, d int) {
		for ; i <= n; i += i & -i {
			tree[i] += d
		}
	}
	prefix := func(i int) (s int) {
		for ; i > 0; i -= i & -i {
			s += tree[i]
		}
		return s
	}
	last := map[disk.PageID]int{} // page → 1-based time of its last use
	hist := make([]uint64, n+2)   // hist[d]: re-references at distance d
	cold := uint64(0)
	for i, p := range trace {
		t := i + 1
		if prev, ok := last[p]; ok {
			hist[prefix(t-1)-prefix(prev)+1]++
			add(prev, -1)
		} else {
			cold++
		}
		add(t, 1)
		last[p] = t
	}
	curve := make([]uint64, len(last)+1)
	curve[len(last)] = cold
	for c := len(last) - 1; c >= 0; c-- {
		curve[c] = curve[c+1] + hist[c+1]
	}
	return curve
}

// curveAt reads a miss curve at c frames.
func curveAt(curve []uint64, c int) uint64 {
	if c >= len(curve) {
		return curve[len(curve)-1]
	}
	return curve[c]
}

// nextUse is a resident page keyed by the time of its next reference.
type nextUse struct {
	at   int
	page disk.PageID
}

// farthestFirst is a max-heap of nextUse by time.
type farthestFirst []nextUse

func (h farthestFirst) Len() int           { return len(h) }
func (h farthestFirst) Less(i, j int) bool { return h[i].at > h[j].at }
func (h farthestFirst) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *farthestFirst) Push(x any)        { *h = append(*h, x.(nextUse)) }
func (h *farthestFirst) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// minMisses returns the misses of Belady's MIN with c frames on trace: a
// miss with every frame full evicts the page used farthest ahead. Heap
// entries a later reference superseded are skipped when popped.
func minMisses(trace []disk.PageID, c int) uint64 {
	n := len(trace)
	next := make([]int, n) // next[t]: time of trace[t]'s next use, n if none
	seen := map[disk.PageID]int{}
	for t := n - 1; t >= 0; t-- {
		next[t] = n
		if u, ok := seen[trace[t]]; ok {
			next[t] = u
		}
		seen[trace[t]] = t
	}
	resident := map[disk.PageID]int{} // page → its next use
	var h farthestFirst
	misses := uint64(0)
	for t, p := range trace {
		if _, ok := resident[p]; !ok {
			misses++
			for len(resident) == c {
				e := heap.Pop(&h).(nextUse)
				if resident[e.page] == e.at {
					delete(resident, e.page)
				}
			}
		}
		resident[p] = next[t]
		heap.Push(&h, nextUse{next[t], p})
	}
	return misses
}

// oracleCase is one base of the oracle tests: NC 20, NO 5000 and 300 hot
// read-only transactions, drawn from seed, on an eager base of either
// derivation.
type oracleCase struct {
	layout ocb.Layout
	seed   uint64
}

func (c oracleCase) String() string { return fmt.Sprintf("%v/seed=%d", c.layout, c.seed) }

func oracleCases() []oracleCase {
	var cs []oracleCase
	for _, layout := range []ocb.Layout{ocb.LayoutEager, ocb.LayoutEagerV2} {
		for seed := uint64(1); seed <= 3; seed++ {
			cs = append(cs, oracleCase{layout, seed})
		}
	}
	return cs
}

// batch generates the case's base and hot batch.
func (c oracleCase) batch(t *testing.T) (*ocb.Database, []ocb.Transaction) {
	t.Helper()
	p := ocb.DefaultParams()
	p.NC, p.NO, p.HotN, p.Layout = 20, 5000, 300, c.layout
	db, err := ocb.Generate(p, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	return db, ocb.GenerateWorkload(db, c.seed+1).Hot
}

// run executes hot on a one-user Page Server with a free network and the
// given buffer, returning the batch and the run's page trace of hot.
func (c oracleCase) run(t *testing.T, db *ocb.Database, hot []ocb.Transaction, frames int, policy string) (BatchStats, []disk.PageID) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NetThroughputMBps = math.Inf(1)
	cfg.BufferPages, cfg.BufferPolicy = frames, policy
	r, err := NewRun(cfg, db, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	trace := pageTrace(r.Store(), hot)
	return r.ExecuteBatch(hot), trace
}

// TestLRUMatchesStackDistances: the model's LRU misses exactly as often
// as the stack-distance count of its trace, every miss reads one page,
// every reference hits or misses once, and more frames never miss more.
func TestLRUMatchesStackDistances(t *testing.T) {
	for _, c := range oracleCases() {
		db, hot := c.batch(t)
		var curve []uint64
		prev := uint64(math.MaxUint64)
		for _, frames := range []int{64, 256, 960, 1920} {
			st, trace := c.run(t, db, hot, frames, "LRU")
			if curve == nil {
				curve = lruMissCurve(trace)
			}
			if want := curveAt(curve, frames); st.Reads != st.Misses || st.Misses != want {
				t.Errorf("%v at %d frames: %d reads, %d misses; stack distances give %d", c, frames, st.Reads, st.Misses, want)
			}
			if st.Hits+st.Misses != uint64(len(trace)) {
				t.Errorf("%v at %d frames: %d hits + %d misses, trace of %d", c, frames, st.Hits, st.Misses, len(trace))
			}
			if st.Misses > prev {
				t.Errorf("%v: %d misses at %d frames, %d with fewer", c, st.Misses, frames, prev)
			}
			prev = st.Misses
		}
	}
}

// TestPoliciesMissAtLeastMIN: no replacement policy misses less often
// than Belady's MIN on the same trace.
func TestPoliciesMissAtLeastMIN(t *testing.T) {
	for _, c := range oracleCases() {
		db, hot := c.batch(t)
		for _, frames := range []int{64, 256, 960} {
			floor := uint64(0)
			for i, policy := range buffer.PolicyNames() {
				st, trace := c.run(t, db, hot, frames, policy)
				if i == 0 {
					floor = minMisses(trace, frames)
				}
				if st.Misses < floor {
					t.Errorf("%v at %d frames: %s misses %d times, MIN %d", c, frames, policy, st.Misses, floor)
				}
			}
		}
	}
}

// TestOraclesOnATextbookTrace checks both oracles against hand counts on
// Belady's anomaly string 1 2 3 4 1 2 5 1 2 3 4 5: LRU misses 12, 12, 10,
// 8 and 5 times with 1 to 5 frames, MIN 7 times with 3 frames and 6 with 4.
func TestOraclesOnATextbookTrace(t *testing.T) {
	trace := []disk.PageID{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}
	curve := lruMissCurve(trace)
	for c, want := range []uint64{12, 12, 12, 10, 8, 5, 5} {
		if got := curveAt(curve, c); got != want {
			t.Errorf("LRU at %d frames: %d misses, want %d", c, got, want)
		}
	}
	for c, want := range map[int]uint64{1: 12, 3: 7, 4: 6, 5: 5} {
		if got := minMisses(trace, c); got != want {
			t.Errorf("MIN at %d frames: %d misses, want %d", c, got, want)
		}
	}
}
