package core

import (
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/ocb"
	"repro/internal/sim"
)

// txnState drives the executor's state machine. Each state corresponds to
// one activity of the knowledge model (acquire lock, extract object,
// extract pages, access disk, perform treatment related to clustering);
// step() dispatches on it. An executor goes back to the kernel, through
// its one reusable continuation, only when another event may fire before
// its next activity; otherwise it continues in place (see step).
type txnState uint8

const (
	stIdle txnState = iota
	// stBegin runs at admission grant: register with the lock manager and
	// start the first operation.
	stBegin
	// stNextOp decides between the next operation and commit, charging the
	// GETLOCK or RELLOCK service time.
	stNextOp
	// stGetLock runs after the GETLOCK service time: the lock table
	// decides grant, wait, or wait-die death.
	stGetLock
	// stFetchObject is the Object Manager: find the page(s) holding the
	// object.
	stFetchObject
	// stFetchPage drives the Buffering Manager for the next page of the
	// current object.
	stFetchPage
	// stFaultLoaded post-processes a completed fault: swizzle-dirty
	// marking and the prefetch decision.
	stFaultLoaded
	// stPageDone is the per-page continuation: Texas reservations, then
	// page shipping.
	stPageDone
	// stReserve claims frames for the swizzled object's reference pages
	// (the Texas swap mechanism), paying evictions as it goes.
	stReserve
	// stShip charges the network for page-server page shipping, then loops
	// to the next page.
	stShip
	// stTreatment is the "Perform Transaction" step on one object: charge
	// the network for object/result shipping, then the CPU.
	stTreatment
	// stCPU requests the processing CPU.
	stCPU
	// stCPUGranted holds the CPU for the object processing time.
	stCPUGranted
	// stCPURelease releases the CPU after the hold.
	stCPURelease
	// stOpDone lets the Clustering Manager observe the access and advances
	// to the next operation.
	stOpDone
	// stCommit runs after the RELLOCK service time: release everything and
	// recycle the executor.
	stCommit
	// stRestart runs after the wait-die abort pause: re-register and
	// re-run from the first operation.
	stRestart
	// stIO requests the disk controller for the next op of the I/O list,
	// or continues at ioNext once the list is done.
	stIO
	// stDiskGrant computes the op's service time once the controller is
	// granted.
	stDiskGrant
	// stDiskRelease releases the controller after the op and returns to
	// stIO.
	stDiskRelease
	// stReorgDone ends a reorganization: drop the stale buffer, report,
	// recycle the executor and continue.
	stReorgDone
	// stRepairDone ends a failure's repair: recycle the executor and arm
	// the next failure.
	stRepairDone
)

// ioOp is one disk operation of an executor's I/O list, packed like ocb.Op:
// the low two bits hold the kind and the rest the page, or, for a scan, the
// number of pages it reads from page 0. A hold's duration is the
// executor's hold field.
type ioOp uint64

const (
	ioRead ioOp = iota
	ioWrite
	ioScan // sequential read from page 0
	ioHold // the controller held for a repair

	ioKindBits = 2
	ioKindMask = 1<<ioKindBits - 1
)

// mkIO packs an op of kind on page p (a page count for ioScan).
func mkIO(kind ioOp, p disk.PageID) ioOp { return ioOp(p)<<ioKindBits | kind }

// txnExec runs transactions, reorganizations and failure repairs; all of
// them reach the disk controller through its one I/O list. Executors are
// recycled through the Run's freelist, and every kernel continuation is
// the single pre-bound step closure, so a steady-state transaction,
// reorganization or repair allocates nothing.
type txnExec struct {
	r      *Run
	tx     *ocb.Transaction
	lockTx lock.Tx

	opIdx int
	prev  ocb.OID // previously accessed object (for clustering)
	start float64 // submission time, or a reorganization's start
	done  func()  // runs at commit, or once a reorganization is done

	startReads, startWrites uint64 // a reorganization's disk counters at its start

	state txnState

	pages   []disk.PageID // pages of the current op (reused buffer)
	pageIdx int

	faultPage disk.PageID
	loaded    bool // whether the current page required a physical read

	reserve []disk.PageID // Texas reservation set (reused buffer)
	resIdx  int

	io     []ioOp   // disk ops to perform, in order (reused buffer)
	ioIdx  int      // next op of io
	ioNext txnState // state to resume once every op is done
	hold   float64  // an ioHold's duration

	cpuRes *sim.Resource

	// cont is the one reusable continuation scheduled on the kernel, and
	// the only kernel entry; lockGranted is the pre-bound callback of a
	// queued lock request. Both are created once per executor lifetime.
	cont        func()
	lockGranted func()
}

// getExec pops a recycled executor or builds one, binding its permanent
// continuations.
func (r *Run) getExec() *txnExec {
	if n := len(r.execPool); n > 0 {
		e := r.execPool[n-1]
		r.execPool = r.execPool[:n-1]
		return e
	}
	e := &txnExec{r: r}
	e.cont = func() { e.step(true) }
	e.lockGranted = func() {
		e.state = stFetchObject
		e.step(false)
	}
	return e
}

// submit runs tx through admission and execution; done fires at commit.
func (r *Run) submit(tx *ocb.Transaction, done func()) {
	e := r.getExec()
	e.tx = tx
	e.start = r.sim.Now()
	e.done = done
	e.state = stBegin
	// The database passive resource schedules transactions according to
	// the multiprogramming level (Table 1).
	if r.admission.Acquire(e.cont) {
		e.step(false)
	}
}

// restart aborts after a wait-die death: release everything, pause briefly,
// and re-run from the first operation.
func (e *txnExec) restart() {
	e.r.txAborted++
	e.r.locks.End(e.lockTx)
	e.state = stRestart
	e.r.sim.Schedule(1.0, e.cont)
}

// evictIO sets the I/O list to a write-back of each dirty victim in evs,
// then a read of page read unless it is disk.None, and starts it.
func (e *txnExec) evictIO(evs []buffer.Eviction, read disk.PageID, next txnState) {
	e.io = e.io[:0]
	for _, ev := range evs {
		if ev.Dirty {
			e.io = append(e.io, mkIO(ioWrite, ev.Page))
		}
	}
	if read != disk.None {
		e.io = append(e.io, mkIO(ioRead, read))
	}
	e.ioIdx, e.ioNext, e.state = 0, next, stIO
}

// recycle returns the executor to the Run's freelist.
func (e *txnExec) recycle() {
	e.done = nil
	e.tx = nil
	e.state = stIdle
	e.r.execPool = append(e.r.execPool, e)
}

// wait charges d ms before the state already set. It reports true when the
// caller continues in place: d is zero, or the kernel entry may advance
// the clock because no other event can fire first (sim.Advance).
// Otherwise it schedules the continuation and reports false.
func (e *txnExec) wait(d float64, kernel bool) bool {
	if d <= 0 || (kernel && e.r.sim.Advance(d)) {
		return true
	}
	e.r.sim.Schedule(d, e.cont)
	return false
}

// step executes states until the executor hands off: a scheduled delay, a
// queued resource or lock request, a restart, or its final state (commit,
// or the end of a reorganization or repair). Everything else loops in
// place — zero delays, free resources, immediate lock grants — and so do
// delays when kernel is set, as long as no other event can fire first.
//
// kernel is set only on the kernel entry, e.cont: its frame ends the
// running event, so advancing the clock there is what returning to the
// kernel would do. The synchronous entries never advance: submit, which
// runs inside the previous transaction's commit (advancing there would
// nest every later transaction of the batch in one stack);
// PerformClustering, which runs inside a user event or outside Run; a
// failure's strike, which runs inside its own event; and lockGranted,
// which runs inside another transaction's release while the lock table
// goes on granting after it returns.
func (e *txnExec) step(kernel bool) {
	r := e.r
	for {
		switch e.state {
		case stBegin:
			r.activeTx++
			e.lockTx = r.locks.Begin()
			e.opIdx = 0
			e.prev = ocb.NilRef
			e.state = stNextOp

		case stRestart:
			e.lockTx = r.locks.Begin()
			e.opIdx = 0
			e.prev = ocb.NilRef
			e.state = stNextOp

		case stNextOp:
			if e.opIdx >= len(e.tx.Ops) {
				held := r.locks.HeldCount(e.lockTx)
				e.state = stCommit
				if !e.wait(float64(held)*r.cfg.RelLockMs, kernel) {
					return
				}
				continue
			}
			// GETLOCK service time, then the lock table decides.
			e.state = stGetLock
			if !e.wait(r.cfg.GetLockMs, kernel) {
				return
			}

		case stGetLock:
			op := e.tx.Ops[e.opIdx]
			mode := lock.Shared
			if op.Write() {
				mode = lock.Exclusive
			}
			switch r.locks.Acquire(e.lockTx, lock.Item(op.Object()), mode, e.lockGranted) {
			case lock.Granted:
				e.state = stFetchObject
			case lock.Queued:
				return
			case lock.Died:
				e.restart()
				return
			}

		case stFetchObject:
			first, span := r.store.Pages(e.tx.Ops[e.opIdx].Object())
			e.pages = e.pages[:0]
			for i := 0; i < span; i++ {
				e.pages = append(e.pages, first+disk.PageID(i))
			}
			e.pageIdx = 0
			e.state = stFetchPage

		case stFetchPage:
			if e.pageIdx >= len(e.pages) {
				e.state = stTreatment
				continue
			}
			p := e.pages[e.pageIdx]
			e.pageIdx++
			res := r.buf.Access(p, e.tx.Ops[e.opIdx].Write())
			if res.Hit {
				e.loaded = false
				e.state = stPageDone
				continue
			}
			// Write back dirty victims, read the page, then post-process.
			e.loaded = true
			e.faultPage = p
			e.evictIO(res.Evicted, p, stFaultLoaded)

		case stFaultLoaded:
			if r.cfg.SwizzleDirty {
				r.buf.MarkDirty(e.faultPage)
			}
			// One-ahead prefetching: also fetch page p+1 on a miss of p.
			if r.cfg.Prefetch == OneAhead {
				next := e.faultPage + 1
				if int(next) < r.store.NumPages() && !r.buf.Contains(next) && !r.buf.IsReserved(next) {
					res := r.buf.Access(next, false)
					if res.Hit {
						e.state = stPageDone
						continue
					}
					e.evictIO(res.Evicted, next, stPageDone)
					continue
				}
			}
			e.state = stPageDone

		case stPageDone:
			if e.loaded && r.cfg.ReserveOnLoad {
				// Texas swizzles the freshly faulted object's pointers,
				// reserving frames for every page it references.
				e.reserve = r.store.ObjectRefPagesInto(e.tx.Ops[e.opIdx].Object(), e.reserve[:0])
				e.resIdx = 0
				e.state = stReserve
				continue
			}
			e.state = stShip

		case stReserve:
			// A reservation evicts at most one page, and only a dirty one
			// costs I/O: the rest go on in place.
			e.state = stShip
			for e.resIdx < len(e.reserve) {
				p := e.reserve[e.resIdx]
				e.resIdx++
				if evs := r.buf.Reserve(p).Evicted; len(evs) > 0 && evs[0].Dirty {
					e.evictIO(evs, disk.None, stReserve)
					break
				}
			}

		case stShip:
			// Page server systems ship the page to the client; object
			// servers ship the object once found (charged in stTreatment);
			// centralized and DB servers move nothing.
			e.state = stFetchPage
			if r.cfg.System == PageServer && !r.net.IsFree() {
				if !e.wait(r.net.TransferTime(r.cfg.PageSize), kernel) {
					return
				}
			}

		case stTreatment:
			e.state = stCPU
			if r.cfg.System == ObjectServer && !r.net.IsFree() {
				size := int(r.db.SizeOf(e.tx.Ops[e.opIdx].Object()))
				if !e.wait(r.net.TransferTime(size), kernel) {
					return
				}
			}
			if r.cfg.System == DBServer && !r.net.IsFree() {
				// Ship a small per-operation result record.
				if !e.wait(r.net.TransferTime(64), kernel) {
					return
				}
			}

		case stCPU:
			cpu := r.serverCPU
			if r.cfg.System == PageServer {
				cpu = r.clientCPU
			}
			e.cpuRes = cpu
			e.state = stCPUGranted
			if !cpu.Acquire(e.cont) {
				return
			}

		case stCPUGranted:
			e.state = stCPURelease
			if !e.wait(r.cfg.ObjectCPUMs, kernel) {
				return
			}

		case stCPURelease:
			e.cpuRes.Release()
			e.state = stOpDone

		case stOpDone:
			op := e.tx.Ops[e.opIdx]
			r.clusterer.Observe(op.Object(), e.prev, op.Write())
			e.prev = op.Object()
			e.opIdx++
			e.state = stNextOp

		case stIO:
			if e.ioIdx >= len(e.io) {
				e.state = e.ioNext
				continue
			}
			e.state = stDiskGrant
			if !r.diskRes.Acquire(e.cont) {
				return
			}

		case stDiskGrant:
			// The controller is granted: compute the service time now
			// (disk head position depends on the grant moment).
			op := e.io[e.ioIdx]
			e.ioIdx++
			p := disk.PageID(op >> ioKindBits)
			var d float64
			switch op & ioKindMask {
			case ioRead:
				d = r.dsk.ReadTime(p)
			case ioWrite:
				d = r.dsk.WriteTime(p)
			case ioScan:
				d = r.dsk.SequentialReadTime(0, int(p))
			case ioHold:
				d = e.hold
			}
			e.state = stDiskRelease
			if !e.wait(d, kernel) {
				return
			}

		case stDiskRelease:
			r.diskRes.Release()
			e.state = stIO

		case stReorgDone:
			// Placement changed: every cached page is stale. Dirty pages
			// were re-written as part of the move, so they are dropped,
			// not flushed.
			r.buf.InvalidateAll()
			r.dsk.ResetHead()
			r.lastReorg = ReorgReport{
				Summary:   r.lastSummary,
				ReadIOs:   r.dsk.Reads() - e.startReads,
				WriteIOs:  r.dsk.Writes() - e.startWrites,
				ElapsedMs: r.sim.Now() - e.start,
			}
			r.reorgIOs += r.lastReorg.IOs()
			then := e.done
			e.recycle()
			then()
			return

		case stRepairDone:
			// The next failure is drawn only now, when the repair ends, so
			// failures never overlap (see FailureParams.MTBFMs). Once the
			// batch has no work left none is drawn, so the calendar drains.
			e.recycle()
			if f := r.failures; f.workRemaining() {
				f.arm()
			}
			return

		case stCommit:
			r.locks.End(e.lockTx)
			r.clusterer.EndTransaction()
			r.activeTx--
			r.txDone++
			resp := r.sim.Now() - e.start
			r.respTotal += resp
			r.respDist.Add(resp)
			r.admission.Release()
			done := e.done
			e.recycle()
			done()
			return

		default:
			panic("core: txnExec step in invalid state")
		}
	}
}
