package core

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/disk"
)

// ReorgReport accounts for one reorganization — the paper's "clustering
// overhead" (Table 6) and cluster statistics (Table 7).
type ReorgReport struct {
	Summary cluster.Summary
	// ReadIOs counts physical reads: old pages of moved objects that were
	// not buffer-resident, plus the whole-database fixup scan for
	// physical-OID stores.
	ReadIOs uint64
	// WriteIOs counts physical writes: the new cluster pages plus the
	// pages rewritten by the fixup scan.
	WriteIOs uint64
	// ElapsedMs is the simulated duration of the reorganization.
	ElapsedMs float64
}

// IOs returns the total overhead I/O count.
func (r ReorgReport) IOs() uint64 { return r.ReadIOs + r.WriteIOs }

// PerformClustering runs the Clustering Manager's reorganization (Figure
// 4: "Perform Clustering"): build clusters from the gathered statistics,
// move them on disk, fix references if the store uses physical OIDs, and
// drop the now-stale buffer contents. then runs when the database is
// reorganized. The report is retrievable via LastReorgReport.
//
// The disk work runs on an executor's I/O list, a copy of the store's page
// lists, so a reorganization still in flight is unaffected when the next
// one rebuilds the clusters and the store's scratch.
func (r *Run) PerformClustering(then func()) {
	clusters := r.clusterer.BuildClusters()
	r.lastSummary = cluster.Summarize(clusters)
	if len(clusters) == 0 {
		r.lastReorg = ReorgReport{}
		then()
		return
	}

	// Reads happen against the pre-reorganization buffer state: pages
	// that are resident need no physical read.
	st := r.store.Reorganize(clusters)
	e := r.getExec()
	e.done = then
	e.start, e.startReads, e.startWrites = r.sim.Now(), r.dsk.Reads(), r.dsk.Writes()
	e.io = e.io[:0]
	for _, p := range st.OldPageList {
		if !r.buf.Contains(p) {
			e.io = append(e.io, mkIO(ioRead, p))
		}
	}
	// The rest has a known count: grow the list once, not op by op.
	e.io = slices.Grow(e.io, len(st.NewPageList)+1+len(st.ScanWritePages))
	for _, p := range st.NewPageList {
		e.io = append(e.io, mkIO(ioWrite, p))
	}
	if st.ScanReads > 0 {
		e.io = append(e.io, mkIO(ioScan, disk.PageID(st.ScanReads)))
		for _, p := range st.ScanWritePages {
			e.io = append(e.io, mkIO(ioWrite, p))
		}
	}
	e.ioIdx, e.ioNext, e.state = 0, stReorgDone, stIO
	e.step(false)
}

// LastReorgReport returns the report of the most recent PerformClustering.
func (r *Run) LastReorgReport() ReorgReport { return r.lastReorg }
