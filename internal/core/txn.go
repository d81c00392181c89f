package core

import (
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/ocb"
)

// txnState is where step resumes the executor. The activities of the
// knowledge model (acquire lock, extract object, extract pages, access
// disk, perform treatment related to clustering) run in place between
// hand-offs, so a state exists only where the executor re-enters after
// one: a queued lock or resource granted, a delay that could not advance
// in place, or an I/O list's end (ioNext). Each line says what re-enters.
type txnState uint8

const (
	stIdle txnState = iota
	// stBegin: the admission token, at once in submit or when queued.
	// Register with the lock manager and start the first operation.
	stBegin
	// stRestart: the wait-die abort pause. Re-register and re-run from the
	// first operation.
	stRestart
	// stGetLock: the GETLOCK service time. The lock table decides grant,
	// wait, or wait-die death.
	stGetLock
	// stFetchObject: a queued lock request's grant (lockGranted). The
	// Object Manager finds the pages holding the object.
	stFetchObject
	// stFetchPage: a page server's page shipping, or the end of a missed
	// page's loading. The Buffering Manager serves the object's next
	// pages; then the treatment ships the object or its result.
	stFetchPage
	// stCPU: the treatment's shipping. Request the processing CPU.
	stCPU
	// stCPUGranted: a queued CPU request's grant. Hold it for the object
	// processing time.
	stCPUGranted
	// stCPURelease: the CPU hold. Release it, let the Clustering Manager
	// observe the access, and charge the next operation's GETLOCK.
	stCPURelease
	// stCommit: the RELLOCK service time. Release everything and recycle
	// the executor.
	stCommit
	// stFaultLoaded: a fault's I/O list. Swizzle-dirty marking and the
	// prefetch decision.
	stFaultLoaded
	// stPageDone: a prefetch's I/O list. Texas reservations for the
	// faulted object.
	stPageDone
	// stReserve: a reservation's write-back. Claim the rest of the
	// reservation set, then ship the page and go on at stFetchPage.
	stReserve
	// stIO: the start of an I/O list (evictIO, a failure's strike,
	// PerformClustering). Request the disk controller for the next op, or
	// continue at ioNext once the list is done.
	stIO
	// stDiskGrant: a queued controller request's grant. Compute the op's
	// service time.
	stDiskGrant
	// stDiskRelease: the op's transfer. Release the controller and go on
	// with the list.
	stDiskRelease
	// stReorgDone: a reorganization's I/O list. Drop the stale buffer,
	// report, recycle the executor and continue.
	stReorgDone
	// stRepairDone: a repair's hold. Recycle the executor and arm the
	// next failure.
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

	page, pageEnd disk.PageID // the current op's next page and the page past its last
	faultPage     disk.PageID // the page the current fault loads

	reserve []disk.PageID // Texas reservation set (reused buffer)
	resIdx  int

	io     []ioOp   // disk ops to perform, in order (reused buffer)
	ioIdx  int      // next op of io
	ioNext txnState // state to resume once every op is done
	hold   float64  // an ioHold's duration

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

// nextOp charges the GETLOCK service time of the next operation or, once
// every operation is done, the RELLOCK time of the locks held, and reports
// whether the caller continues in place, like wait.
func (e *txnExec) nextOp(kernel bool) bool {
	if e.opIdx < len(e.tx.Ops) {
		e.state = stGetLock
		return e.wait(e.r.cfg.GetLockMs, kernel)
	}
	held := e.r.locks.HeldCount(e.lockTx)
	e.state = stCommit
	return e.wait(float64(held)*e.r.cfg.RelLockMs, kernel)
}

// shipPage charges a page server's shipping of one page to its client and
// reports whether the caller continues in place, like wait. Object servers
// ship the object once found, in the treatment; centralized and database
// servers move no page.
func (e *txnExec) shipPage(kernel bool) bool {
	r := e.r
	return r.cfg.System != PageServer || r.net.IsFree() || e.wait(r.net.TransferTime(r.cfg.PageSize), kernel)
}

// step runs the executor until it hands off: a scheduled delay, a queued
// resource or lock request, a restart, or its final state (commit, or the
// end of a reorganization or repair). Everything else goes on in place —
// zero delays, free resources, immediate lock grants — and so do delays
// when kernel is set, as long as no other event can fire first.
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
dispatch:
	for {
		// The case order is the rule: from stGetLock to stCPURelease the
		// cases follow one access's uncontended path in text order, each
		// falling through to the next, so an access whose lock is granted,
		// whose pages hit and whose delays advance in place costs one
		// dispatch. A path that leaves the chain sets the state it resumes
		// at, then returns on a hand-off or ends its case to dispatch again.
		switch e.state {
		case stBegin:
			r.activeTx++
			fallthrough

		case stRestart:
			e.lockTx = r.locks.Begin()
			e.opIdx = 0
			e.prev = ocb.NilRef
			if !e.nextOp(kernel) {
				return
			}

		case stGetLock:
			op := e.tx.Ops[e.opIdx]
			mode := lock.Shared
			if op.Write() {
				mode = lock.Exclusive
			}
			switch r.locks.Acquire(e.lockTx, lock.Item(op.Object()), mode, e.lockGranted) {
			case lock.Queued:
				return
			case lock.Died:
				e.restart()
				return
			}
			fallthrough

		case stFetchObject:
			first, span := r.store.Pages(e.tx.Ops[e.opIdx].Object())
			e.page, e.pageEnd = first, first+disk.PageID(span)
			fallthrough

		case stFetchPage:
			// Hits go on here. A miss writes back its dirty victims, reads
			// the page and post-processes it, then comes back.
			e.state = stFetchPage
			write := e.tx.Ops[e.opIdx].Write()
			for e.page < e.pageEnd {
				p := e.page
				e.page++
				if res := r.buf.Access(p, write); !res.Hit {
					e.faultPage = p
					e.evictIO(res.Evicted, p, stFaultLoaded)
					continue dispatch
				}
				if !e.shipPage(kernel) {
					return
				}
			}
			// The treatment: an object server ships the object, a
			// database server a small per-operation result record.
			e.state = stCPU
			if sys := r.cfg.System; (sys == ObjectServer || sys == DBServer) && !r.net.IsFree() {
				size := 64
				if sys == ObjectServer {
					size = int(r.db.SizeOf(e.tx.Ops[e.opIdx].Object()))
				}
				if !e.wait(r.net.TransferTime(size), kernel) {
					return
				}
			}
			fallthrough

		case stCPU:
			e.state = stCPUGranted
			if !r.cpu.Acquire(e.cont) {
				return
			}
			fallthrough

		case stCPUGranted:
			e.state = stCPURelease
			if !e.wait(r.cfg.ObjectCPUMs, kernel) {
				return
			}
			fallthrough

		case stCPURelease:
			r.cpu.Release()
			op := e.tx.Ops[e.opIdx]
			r.clusterer.Observe(op.Object(), e.prev, op.Write())
			e.prev = op.Object()
			e.opIdx++
			if !e.nextOp(kernel) {
				return
			}

		case stFaultLoaded:
			if r.cfg.SwizzleDirty {
				r.buf.MarkDirty(e.faultPage)
			}
			// One-ahead prefetching: also fetch page p+1 on a miss of p.
			if next := e.faultPage + 1; r.cfg.Prefetch == OneAhead && int(next) < r.store.NumPages() && !r.buf.Contains(next) && !r.buf.IsReserved(next) {
				if res := r.buf.Access(next, false); !res.Hit {
					e.evictIO(res.Evicted, next, stPageDone)
					continue
				}
			}
			fallthrough

		case stPageDone:
			e.reserve, e.resIdx = e.reserve[:0], 0
			if r.cfg.ReserveOnLoad {
				// Texas swizzles the freshly faulted object's pointers,
				// reserving frames for every page it references.
				e.reserve = r.store.ObjectRefPagesInto(e.tx.Ops[e.opIdx].Object(), e.reserve)
			}
			fallthrough

		case stReserve:
			// A reservation evicts at most one page, and only a dirty one
			// costs I/O: the rest go on in place.
			for e.resIdx < len(e.reserve) {
				p := e.reserve[e.resIdx]
				e.resIdx++
				if evs := r.buf.Reserve(p).Evicted; len(evs) > 0 && evs[0].Dirty {
					e.evictIO(evs, disk.None, stReserve)
					continue dispatch
				}
			}
			e.state = stFetchPage
			if !e.shipPage(kernel) {
				return
			}

		case stDiskRelease:
			r.diskRes.Release()
			fallthrough

		case stIO:
			if e.ioIdx >= len(e.io) {
				e.state = e.ioNext
				continue
			}
			e.state = stDiskGrant
			if !r.diskRes.Acquire(e.cont) {
				return
			}
			fallthrough

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
