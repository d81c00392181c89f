package core

import (
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/ocb"
	"repro/internal/sim"
)

// txnState drives the Transaction Manager's per-transaction state machine.
// Each state corresponds to one activity of the knowledge model (acquire
// lock, extract object, extract pages, access disk, perform treatment
// related to clustering); step() dispatches on it, so the kernel schedules
// one reusable continuation per transaction instead of a fresh closure per
// activity.
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
	// stEvict writes back the dirty victims of the pending
	// eviction list, one disk write at a time, then continues at evNext.
	stEvict
	// stReadFault performs the physical read of the faulted page.
	stReadFault
	// stFaultLoaded post-processes a completed fault: swizzle-dirty
	// marking and the prefetch decision.
	stFaultLoaded
	// stReadPrefetch performs the one-ahead prefetch read.
	stReadPrefetch
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
	// stDiskGrant computes the service time once the disk controller is
	// granted.
	stDiskGrant
	// stDiskRelease releases the controller after the transfer and
	// continues at afterDisk.
	stDiskRelease
)

// txnExec is the Transaction Manager's per-transaction state machine.
// Executors are recycled through the Run's freelist, and every kernel
// continuation is the single pre-bound step closure, so a steady-state
// transaction allocates nothing.
type txnExec struct {
	r    *Run
	tx   *ocb.Transaction
	txid lock.TxID

	opIdx   int
	prev    ocb.OID // previously accessed object (for clustering)
	submitT float64
	done    func()

	state txnState

	pages   []disk.PageID // pages of the current op (reused buffer)
	pageIdx int

	evs    []buffer.Eviction // pending evictions (reused buffer)
	evIdx  int
	evNext txnState // state to resume once evictions are written

	faultPage    disk.PageID
	prefetchPage disk.PageID
	loaded       bool // whether the current page required a physical read

	reserve []disk.PageID // Texas reservation set (reused buffer)
	resIdx  int

	diskPage  disk.PageID
	diskWrite bool
	afterDisk txnState // state to resume once the disk op completes

	cpuRes *sim.Resource

	// cont is the one reusable continuation scheduled on the kernel;
	// lockGranted/lockDied are the pre-bound lock-table callbacks. All
	// three are created once per executor lifetime.
	cont        func()
	lockGranted func()
	lockDied    func()
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
	e.cont = e.step
	e.lockGranted = func() {
		e.state = stFetchObject
		e.step()
	}
	e.lockDied = e.restart
	return e
}

// submit runs tx through admission and execution; done fires at commit.
func (r *Run) submit(tx *ocb.Transaction, done func()) {
	e := r.getExec()
	e.tx = tx
	e.submitT = r.sim.Now()
	e.done = done
	e.state = stBegin
	// The database passive resource schedules transactions according to
	// the multiprogramming level (Table 1).
	r.admission.Request(e.cont)
}

// restart aborts after a wait-die death: release everything, pause briefly,
// and re-run from the first operation.
func (e *txnExec) restart() {
	e.r.txAborted++
	e.r.locks.End(e.txid)
	e.state = stRestart
	e.r.after(1.0, e.cont)
}

// diskIO acquires the disk controller, holds it for the transfer time of
// one page op, releases, then resumes at next. Equivalent to Run.use with
// a ReadTime or WriteTime service, without the per-call closures.
func (e *txnExec) diskIO(p disk.PageID, write bool, next txnState) {
	e.diskPage = p
	e.diskWrite = write
	e.afterDisk = next
	e.state = stDiskGrant
	e.r.diskRes.Request(e.cont)
}

// step executes states until the transaction hands off to the kernel (a
// scheduled delay, a resource grant, or a lock decision). Pure transitions
// loop in place; any call that may fire callbacks returns immediately so
// re-entrant execution (inline grants, zero delays) never resumes a stale
// frame.
func (e *txnExec) step() {
	r := e.r
	for {
		switch e.state {
		case stBegin:
			r.activeTx++
			e.txid = r.locks.Begin()
			e.opIdx = 0
			e.prev = ocb.NilRef
			e.state = stNextOp

		case stRestart:
			e.txid = r.locks.Begin()
			e.opIdx = 0
			e.prev = ocb.NilRef
			e.state = stNextOp

		case stNextOp:
			if e.opIdx >= len(e.tx.Ops) {
				held := r.locks.HeldCount(e.txid)
				e.state = stCommit
				r.after(float64(held)*r.cfg.RelLockMs, e.cont)
				return
			}
			// GETLOCK service time, then the lock table decides.
			e.state = stGetLock
			r.after(r.cfg.GetLockMs, e.cont)
			return

		case stGetLock:
			op := e.tx.Ops[e.opIdx]
			mode := lock.Shared
			if op.Write() {
				mode = lock.Exclusive
			}
			r.locks.Acquire(e.txid, lock.Item(op.Object()), mode, e.lockGranted, e.lockDied)
			return

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
			e.evs = append(e.evs[:0], res.Evicted...)
			e.evIdx = 0
			e.evNext = stReadFault
			e.state = stEvict

		case stEvict:
			for e.evIdx < len(e.evs) && !e.evs[e.evIdx].Dirty {
				e.evIdx++
			}
			if e.evIdx >= len(e.evs) {
				e.state = e.evNext
				continue
			}
			p := e.evs[e.evIdx].Page
			e.evIdx++
			e.diskIO(p, true, stEvict)
			return

		case stReadFault:
			e.diskIO(e.faultPage, false, stFaultLoaded)
			return

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
					e.prefetchPage = next
					e.evs = append(e.evs[:0], res.Evicted...)
					e.evIdx = 0
					e.evNext = stReadPrefetch
					e.state = stEvict
					continue
				}
			}
			e.state = stPageDone

		case stReadPrefetch:
			e.diskIO(e.prefetchPage, false, stPageDone)
			return

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
			if e.resIdx >= len(e.reserve) {
				e.state = stShip
				continue
			}
			p := e.reserve[e.resIdx]
			e.resIdx++
			res := r.buf.Reserve(p)
			e.evs = append(e.evs[:0], res.Evicted...)
			e.evIdx = 0
			e.evNext = stReserve
			e.state = stEvict

		case stShip:
			// Page server systems ship the page to the client; object
			// servers ship the object once found (charged in stTreatment);
			// centralized and DB servers move nothing.
			if r.cfg.System == PageServer && !r.net.IsFree() {
				e.state = stFetchPage
				r.after(r.net.TransferTime(r.cfg.PageSize), e.cont)
				return
			}
			e.state = stFetchPage

		case stTreatment:
			if r.cfg.System == ObjectServer && !r.net.IsFree() {
				size := int(r.db.SizeOf(e.tx.Ops[e.opIdx].Object()))
				e.state = stCPU
				r.after(r.net.TransferTime(size), e.cont)
				return
			}
			if r.cfg.System == DBServer && !r.net.IsFree() {
				// Ship a small per-operation result record.
				e.state = stCPU
				r.after(r.net.TransferTime(64), e.cont)
				return
			}
			e.state = stCPU

		case stCPU:
			cpu := r.serverCPU
			if r.cfg.System == PageServer {
				cpu = r.clientCPU
			}
			e.cpuRes = cpu
			e.state = stCPUGranted
			cpu.Request(e.cont)
			return

		case stCPUGranted:
			if d := r.cfg.ObjectCPUMs; d > 0 {
				e.state = stCPURelease
				r.sim.Schedule(d, e.cont)
				return
			}
			e.cpuRes.Release()
			e.state = stOpDone

		case stCPURelease:
			e.cpuRes.Release()
			e.state = stOpDone

		case stOpDone:
			op := e.tx.Ops[e.opIdx]
			r.clusterer.Observe(op.Object(), e.prev, op.Write())
			e.prev = op.Object()
			e.opIdx++
			e.state = stNextOp

		case stDiskGrant:
			// The controller is granted: compute the service time now
			// (disk head position depends on the grant moment).
			var d float64
			if e.diskWrite {
				d = r.dsk.WriteTime(e.diskPage)
			} else {
				d = r.dsk.ReadTime(e.diskPage)
			}
			if d <= 0 {
				r.diskRes.Release()
				e.state = e.afterDisk
				continue
			}
			e.state = stDiskRelease
			r.sim.Schedule(d, e.cont)
			return

		case stDiskRelease:
			r.diskRes.Release()
			e.state = e.afterDisk

		case stCommit:
			r.locks.End(e.txid)
			r.clusterer.EndTransaction()
			r.activeTx--
			r.txDone++
			resp := r.sim.Now() - e.submitT
			r.respTotal += resp
			r.respDist.Add(resp)
			r.admission.Release()
			done := e.done
			e.done = nil
			e.tx = nil
			e.state = stIdle
			r.execPool = append(r.execPool, e)
			done()
			return

		default:
			panic("core: txnExec step in invalid state")
		}
	}
}
