package core

import (
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
// The disk work runs on a pooled reorgExec that owns copies of the page
// lists, so a reorganization still in flight is unaffected when the next
// one rebuilds the clusters and the store's scratch.
func (r *Run) PerformClustering(then func()) {
	start := r.sim.Now()
	startReads, startWrites := r.dsk.Reads(), r.dsk.Writes()

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
	e := r.getReorg()
	e.then = then
	e.start, e.startReads, e.startWrites = start, startReads, startWrites
	e.reads = e.reads[:0]
	for _, p := range st.OldPageList {
		if !r.buf.Contains(p) {
			e.reads = append(e.reads, p)
		}
	}
	e.writes = append(e.writes[:0], st.NewPageList...)
	e.scanPages = st.ScanReads
	e.fixups = append(e.fixups[:0], st.ScanWritePages...)
	e.phase, e.idx = reorgRead, 0
	e.next()
}

// reorgPhase is the disk work a reorganization is doing.
type reorgPhase uint8

const (
	// reorgRead reads the non-resident old pages of moved objects.
	reorgRead reorgPhase = iota
	// reorgWrite writes the new pages of moved objects.
	reorgWrite
	// reorgScan reads the whole old database sequentially (physical OIDs).
	reorgScan
	// reorgFixup rewrites the pages the scan found referencing moved
	// objects.
	reorgFixup
)

// reorgExec performs one reorganization's disk I/O, one page at a time,
// through the disk controller. Executors are recycled through the Run's
// pool, and their two kernel continuations are bound once, so a warmed
// reorganization allocates nothing.
type reorgExec struct {
	r    *Run
	then func()

	start                   float64
	startReads, startWrites uint64

	// The page lists, copied from the store's ReorgStats.
	reads, writes, fixups []disk.PageID
	scanPages             int // pages the fixup scan reads; 0 without physical OIDs

	phase reorgPhase
	idx   int // next page of the current phase's list

	granted  func() // disk controller granted: start the transfer
	released func() // transfer done: release the controller, go on
}

// getReorg pops a recycled executor or builds one, binding its
// continuations.
func (r *Run) getReorg() *reorgExec {
	if n := len(r.reorgPool); n > 0 {
		e := r.reorgPool[n-1]
		r.reorgPool = r.reorgPool[:n-1]
		return e
	}
	e := &reorgExec{r: r}
	e.granted = e.transfer
	e.released = func() {
		e.r.diskRes.Release()
		e.next()
	}
	return e
}

// next requests the disk for the current phase's next I/O, moving through
// the phases as each list runs out, and finishes after the last one.
func (e *reorgExec) next() {
	for {
		switch e.phase {
		case reorgRead:
			if e.idx < len(e.reads) {
				e.r.diskRes.Request(e.granted)
				return
			}
			e.phase, e.idx = reorgWrite, 0
		case reorgWrite:
			if e.idx < len(e.writes) {
				e.r.diskRes.Request(e.granted)
				return
			}
			if e.scanPages == 0 {
				e.finish()
				return
			}
			e.phase = reorgScan
			e.r.diskRes.Request(e.granted)
			return
		case reorgScan: // the scan is done
			e.phase, e.idx = reorgFixup, 0
		case reorgFixup:
			if e.idx < len(e.fixups) {
				e.r.diskRes.Request(e.granted)
				return
			}
			e.finish()
			return
		}
	}
}

// transfer runs once the controller is granted: the service time depends
// on the disk head at that moment.
func (e *reorgExec) transfer() {
	r := e.r
	var d float64
	switch e.phase {
	case reorgRead:
		d = r.dsk.ReadTime(e.reads[e.idx])
	case reorgWrite:
		d = r.dsk.WriteTime(e.writes[e.idx])
	case reorgScan:
		d = r.dsk.SequentialReadTime(0, e.scanPages)
	case reorgFixup:
		d = r.dsk.WriteTime(e.fixups[e.idx])
	}
	e.idx++
	if d <= 0 {
		r.diskRes.Release()
		e.next()
		return
	}
	r.sim.Schedule(d, e.released)
}

// finish drops the stale buffer contents, records the report, recycles the
// executor and continues.
func (e *reorgExec) finish() {
	r := e.r
	// Placement changed: every cached page is stale. Dirty pages were
	// re-written as part of the move, so they are dropped, not flushed.
	r.buf.InvalidateAll()
	r.dsk.ResetHead()
	r.lastReorg = ReorgReport{
		Summary:   r.lastSummary,
		ReadIOs:   r.dsk.Reads() - e.startReads,
		WriteIOs:  r.dsk.Writes() - e.startWrites,
		ElapsedMs: r.sim.Now() - e.start,
	}
	r.reorgIOs += r.lastReorg.IOs()
	then := e.then
	e.then = nil
	r.reorgPool = append(r.reorgPool, e)
	then()
}

// LastReorgReport returns the report of the most recent PerformClustering.
func (r *Run) LastReorgReport() ReorgReport { return r.lastReorg }
