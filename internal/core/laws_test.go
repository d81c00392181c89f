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
// failures off or on (MTBF 500 ms, 20 ms repairs) × two seeds.
//   - Little's law on the admission resource: the time-integral of its
//     queue equals the waits of its grants, ∫Q dt = Σ W, to 1e-9 relative.
//   - Every miss reads one page (no prefetch here).
//   - Every disk grant is a read, a write or a failure's repair.
//   - Every hot transaction commits.
//   - The batch leaves nothing behind: no active transaction, and every
//     passive resource idle with an empty queue.
func TestOperationalLaws(t *testing.T) {
	for _, c := range mmMatrix() {
		for _, seed := range []uint64{7, 8} {
			name := fmt.Sprintf("%v/seed=%d", c, seed)
			cfg, p := c.inputs()
			cfg.MPL = 4
			if c.failures {
				cfg.Failures = FailureParams{Enabled: true, MTBFMs: 500, MeanRepairMs: 20}
			}
			r, db := mustRun(t, cfg, p, seed)
			hot := ocb.GenerateWorkload(db, seed+1).Hot
			struck := r.FailureStats().Failures
			st := r.ExecuteBatch(hot)
			struck = r.FailureStats().Failures - struck
			if c.failures && struck == 0 {
				t.Fatalf("%s: no failure struck: the case does not test failures", name)
			}

			adm := r.admission
			queued, waited := adm.MeanQueueLength()*st.ElapsedMs, float64(adm.Grants())*adm.MeanWait()
			if math.Abs(queued-waited) > 1e-9*math.Max(math.Abs(queued), math.Abs(waited)) {
				t.Errorf("%s: Little's law: ∫Q dt = %v, Σ W = %v", name, queued, waited)
			}
			if st.Reads != st.Misses {
				t.Errorf("%s: %d reads, %d misses", name, st.Reads, st.Misses)
			}
			if g := r.diskRes.Grants(); g != st.Reads+st.Writes+struck {
				t.Errorf("%s: %d disk grants, %d reads + %d writes + %d repairs", name, g, st.Reads, st.Writes, struck)
			}
			if st.Transactions != uint64(len(hot)) {
				t.Errorf("%s: %d of %d hot transactions committed", name, st.Transactions, len(hot))
			}
			if r.activeTx != 0 {
				t.Errorf("%s: %d transactions still active", name, r.activeTx)
			}
			for _, res := range []*sim.Resource{r.diskRes, r.serverCPU, r.clientCPU, r.admission} {
				if res.InUse() != 0 || res.QueueLen() != 0 {
					t.Errorf("%s: %s holds %d tokens with %d queued", name, res.Name(), res.InUse(), res.QueueLen())
				}
			}
		}
	}
}
