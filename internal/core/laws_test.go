package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ocb"
	"repro/internal/sim"
)

// TestOperationalLaws checks laws that hold after every batch whatever
// the service distributions are, over the architecture matrix: the four
// system classes × 1 or 8 users at MPL 4 × read-only or 30 % writes ×
// failures off or on (MTBF 500 ms, 20 ms repairs) × two seeds. Each case
// runs the hot batch twice, the second time on the model the first left
// warm, and checks each batch:
//   - Little's law on the admission resource: the time-integral of its
//     queue equals the waits of its grants, ∫Q dt = Σ W, to 1e-9 relative.
//   - Admission: its tokens are held from grant to commit, so
//     ∫inUse dt = Σ R − Σ W, to 1e-9 relative.
//   - Disk: the controller is held for each transfer the disk model
//     charges and for each repair, so ∫inUse dt equals the model's busy
//     time plus the batch's downtime, to 1e-9 relative.
//   - Processing CPU (the server's; the client's on a page server): every
//     grant holds ObjectCPUMs, so ∫inUse dt = grants × ObjectCPUMs. A hold
//     ends at a rounded clock reading, so each grant may differ by one ulp
//     of the batch's end time.
//   - Every miss reads one page (no prefetch here).
//   - Every disk grant is a read, a write or a failure's repair.
//   - Every hot transaction commits.
//   - The batch leaves nothing behind: no active transaction, no locked
//     item, and every passive resource idle with an empty queue.
func TestOperationalLaws(t *testing.T) {
	for _, c := range mmMatrix() {
		for _, seed := range []uint64{7, 8} {
			cfg, p := c.inputs()
			cfg.MPL = 4
			if c.failures {
				cfg.Failures = FailureParams{Enabled: true, MTBFMs: 500, MeanRepairMs: 20}
			}
			r, db := mustRun(t, cfg, p, seed)
			hot := ocb.GenerateWorkload(db, seed+1).Hot
			for batch := 1; batch <= 2; batch++ {
				checkLaws(t, fmt.Sprintf("%v/seed=%d/batch=%d", c, seed, batch), r, hot)
			}
		}
	}
}

// checkLaws runs txs as one batch on r and checks the operational laws
// of TestOperationalLaws on it.
func checkLaws(t *testing.T, name string, r *Run, txs []ocb.Transaction) {
	t.Helper()
	before := r.FailureStats()
	busyBefore, respBefore := r.dsk.BusyTime(), r.respTotal
	st := r.ExecuteBatch(txs)
	struck := r.FailureStats().Failures - before.Failures
	downtime := r.FailureStats().DowntimeMs - before.DowntimeMs
	if r.cfg.Failures.Enabled && struck == 0 {
		t.Fatalf("%s: no failure struck: the case does not test failures", name)
	}
	near := func(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
	rel := func(a, b float64) float64 { return 1e-9 * math.Max(math.Abs(a), math.Abs(b)) }
	// inUse is ∫inUse dt over the batch: ExecuteBatch reset the
	// resource's statistics at its start.
	inUse := func(res *sim.Resource) float64 {
		return res.Utilization() * float64(res.Capacity()) * st.ElapsedMs
	}

	adm := r.admission
	queued, waited := adm.MeanQueueLength()*st.ElapsedMs, float64(adm.Grants())*adm.MeanWait()
	if !near(queued, waited, rel(queued, waited)) {
		t.Errorf("%s: Little's law: ∫Q dt = %v, Σ W = %v", name, queued, waited)
	}
	held, resp := inUse(adm), r.respTotal-respBefore
	if !near(held, resp-waited, rel(held, resp-waited)) {
		t.Errorf("%s: admission: ∫inUse dt = %v, Σ R − Σ W = %v − %v", name, held, resp, waited)
	}
	disk, service := inUse(r.diskRes), r.dsk.BusyTime()-busyBefore+downtime
	if !near(disk, service, rel(disk, service)) {
		t.Errorf("%s: disk: ∫inUse dt = %v, busy time + downtime = %v", name, disk, service)
	}
	cpu := r.serverCPU
	if r.cfg.System == PageServer {
		cpu = r.clientCPU
	}
	end := r.sim.Now()
	ulp := math.Nextafter(end, math.Inf(1)) - end
	grants := float64(cpu.Grants())
	if busy, hold := inUse(cpu), grants*r.cfg.ObjectCPUMs; grants == 0 || !near(busy, hold, grants*ulp) {
		t.Errorf("%s: %s: ∫inUse dt = %v, %v grants × %v ms = %v", name, cpu.Name(), busy, grants, r.cfg.ObjectCPUMs, hold)
	}
	if st.Reads != st.Misses {
		t.Errorf("%s: %d reads, %d misses", name, st.Reads, st.Misses)
	}
	if g := r.diskRes.Grants(); g != st.Reads+st.Writes+struck {
		t.Errorf("%s: %d disk grants, %d reads + %d writes + %d repairs", name, g, st.Reads, st.Writes, struck)
	}
	if st.Transactions != uint64(len(txs)) {
		t.Errorf("%s: %d of %d hot transactions committed", name, st.Transactions, len(txs))
	}
	if r.activeTx != 0 {
		t.Errorf("%s: %d transactions still active", name, r.activeTx)
	}
	if n := r.locks.Locked(); n != 0 {
		t.Errorf("%s: %d items still locked", name, n)
	}
	for _, res := range []*sim.Resource{r.diskRes, r.serverCPU, r.clientCPU, r.admission} {
		if res.InUse() != 0 || res.QueueLen() != 0 {
			t.Errorf("%s: %s holds %d tokens with %d queued", name, res.Name(), res.InUse(), res.QueueLen())
		}
	}
}
