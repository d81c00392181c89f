package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/ocb"
)

// Metamorphic relations: each compares runs that must agree, or one run
// with a law it must satisfy, so none needs a published value or a pinned
// past output. Every relation is exact: a time relation holds bit for bit,
// the response-time law to rounding. A case known to miss is listed with
// the defect behind it. It still runs, and the test fails once it holds,
// so the PR that mends the defect moves it into the relation.

// mmCase is one point of the model matrix the relations run over.
type mmCase struct {
	sys      SystemClass
	users    int     // the MPL equals the user count
	writes   float64 // per-access update probability
	failures bool
}

func (c mmCase) String() string {
	return fmt.Sprintf("%v/users=%d/writes=%g/failures=%t", c.sys, c.users, c.writes, c.failures)
}

var systemClasses = []SystemClass{Centralized, ObjectServer, PageServer, DBServer}

// mmMatrix is every system class × 1 or 8 users × read-only or 30 %
// writes × failures off or on.
func mmMatrix() []mmCase {
	var cs []mmCase
	for _, sys := range systemClasses {
		for _, users := range []int{1, 8} {
			for _, writes := range []float64{0, 0.3} {
				for _, failures := range []bool{false, true} {
					cs = append(cs, mmCase{sys, users, writes, failures})
				}
			}
		}
	}
	return cs
}

func (c mmCase) inputs() (Config, ocb.Params) {
	cfg := smallConfig()
	cfg.System = c.sys
	cfg.Users, cfg.MPL = c.users, c.users
	if c.failures {
		cfg.Failures = FailureParams{Enabled: true, MTBFMs: 10000, MeanRepairMs: 200}
	}
	p := smallParams()
	p.WriteProb = c.writes
	return cfg, p
}

// mmBatch runs one measured batch of cfg on a base of p.
func mmBatch(t *testing.T, cfg Config, p ocb.Params) BatchStats {
	t.Helper()
	r, db := mustRun(t, cfg, p, 7)
	st := r.ExecuteBatch(ocb.GenerateWorkload(db, 8).Hot)
	if cfg.Failures.Enabled && r.FailureStats().Failures == 0 {
		t.Fatalf("no failure struck: the case does not test failures")
	}
	return st
}

// knownMiss runs a case that a defect breaks and fails once it holds.
func knownMiss(t *testing.T, name string, holds bool, defect string) {
	t.Helper()
	if holds {
		t.Errorf("%s: known miss now holds (%s); move it into the relation", name, defect)
		return
	}
	t.Logf("%s: known miss (%s)", name, defect)
}

// TestMPLAtOneUser: with one user, a multiprogramming level above one
// admits nobody else, so MPL 1, 2 and 64 run the same batch.
func TestMPLAtOneUser(t *testing.T) {
	for _, c := range mmMatrix() {
		if c.users != 1 {
			continue
		}
		cfg, p := c.inputs()
		base := mmBatch(t, cfg, p)
		for _, mpl := range []int{2, 64} {
			cfg.MPL = mpl
			st := mmBatch(t, cfg, p)
			if st.ElapsedMs != base.ElapsedMs || st.IOs != base.IOs || st.MeanRespMs != base.MeanRespMs {
				t.Errorf("%v: MPL %d reads %d I/Os, %v ms elapsed, %v ms mean; MPL 1 reads %d, %v, %v",
					c, mpl, st.IOs, st.ElapsedMs, st.MeanRespMs, base.IOs, base.ElapsedMs, base.MeanRespMs)
			}
		}
	}
}

// TestPoliciesAgreeWhenTheBaseFits: a buffer larger than the base never
// evicts, so every replacement policy reads each page once.
func TestPoliciesAgreeWhenTheBaseFits(t *testing.T) {
	for _, sys := range []SystemClass{Centralized, PageServer} {
		want := uint64(0)
		for i, policy := range buffer.PolicyNames() {
			cfg, p := mmCase{sys: sys, users: 1}.inputs()
			cfg.BufferPages = 4096
			cfg.BufferPolicy = policy
			st := mmBatch(t, cfg, p)
			if i == 0 {
				want = st.IOs
			} else if st.IOs != want {
				t.Errorf("%v: %s reads %d I/Os, %s reads %d", sys, policy, st.IOs, buffer.PolicyNames()[0], want)
			}
		}
	}
}

// TestSystemClassesShareIOs: the architecture moves time and network
// traffic, not the page-reference string, so one user without failures
// reads the same I/Os on all four system classes.
func TestSystemClassesShareIOs(t *testing.T) {
	for _, writes := range []float64{0, 0.3} {
		var first BatchStats
		for i, sys := range systemClasses {
			cfg, p := mmCase{sys: sys, users: 1, writes: writes}.inputs()
			st := mmBatch(t, cfg, p)
			if i == 0 {
				first = st
			} else if st.IOs != first.IOs {
				t.Errorf("writes=%g: %v reads %d I/Os, %v reads %d", writes, sys, st.IOs, systemClasses[0], first.IOs)
			}
		}
	}
}

// TestReadersNeverWait: shared locks never conflict, so a read-only batch
// of eight concurrent users has no lock wait and no abort.
func TestReadersNeverWait(t *testing.T) {
	for _, c := range mmMatrix() {
		if c.users != 8 || c.writes != 0 {
			continue
		}
		cfg, p := c.inputs()
		if st := mmBatch(t, cfg, p); st.LockWaits != 0 || st.Aborts != 0 {
			t.Errorf("%v: %d lock waits, %d aborts", c, st.LockWaits, st.Aborts)
		}
	}
}

// doubleTime doubles every time parameter of cfg and halves the network
// throughput. Doubling is exact in binary floating point, so every event
// time doubles bit for bit.
func doubleTime(cfg Config) Config {
	cfg.DiskSeekMs *= 2
	cfg.DiskLatencyMs *= 2
	cfg.DiskTransferMs *= 2
	cfg.GetLockMs *= 2
	cfg.RelLockMs *= 2
	cfg.ObjectCPUMs *= 2
	cfg.ThinkTimeMs *= 2
	cfg.NetLatencyMs *= 2
	cfg.NetThroughputMBps /= 2
	cfg.Failures.MTBFMs *= 2
	cfg.Failures.MeanRepairMs *= 2
	return cfg
}

// TestTimeScaling: the model has no time constant outside Config, so
// doubling every time keeps what happens and doubles when it happens.
// Known misses: the 8 multi-user write cases, because restart() in txn.go
// pauses a fixed 1 ms before a transaction that died retries; they join
// when a restart waits for the holder's release instead.
func TestTimeScaling(t *testing.T) {
	for _, c := range mmMatrix() {
		cfg, p := c.inputs()
		cfg.ThinkTimeMs, cfg.NetLatencyMs = 5, 0.25
		st := mmBatch(t, cfg, p)
		scaled := mmBatch(t, doubleTime(cfg), p)
		holds := scaled.IOs == st.IOs && scaled.Transactions == st.Transactions && scaled.Aborts == st.Aborts &&
			scaled.ElapsedMs == 2*st.ElapsedMs && scaled.MeanRespMs == 2*st.MeanRespMs
		if c.users > 1 && c.writes > 0 {
			knownMiss(t, c.String(), holds, "restart()'s fixed 1 ms pause")
			continue
		}
		if !holds {
			t.Errorf("%v: scaled run reads %d I/Os, %d commits, %d aborts, %v ms elapsed, %v ms mean; want %d, %d, %d, %v, %v",
				c, scaled.IOs, scaled.Transactions, scaled.Aborts, scaled.ElapsedMs, scaled.MeanRespMs,
				st.IOs, st.Transactions, st.Aborts, 2*st.ElapsedMs, 2*st.MeanRespMs)
		}
	}
}

// TestResponseTimeLaw: one user alternates a transaction and a think
// time, so the interactive response-time law X = 1/(R + Z) holds to
// rounding. Known misses: the cases with failures on, because the strike
// still pending when the work ends stretches the batch clock to its own
// time; they join when the batch clock stops with the work.
func TestResponseTimeLaw(t *testing.T) {
	for _, c := range mmMatrix() {
		if c.users != 1 {
			continue
		}
		for _, think := range []float64{0, 100} {
			cfg, p := c.inputs()
			cfg.ThinkTimeMs = think
			st := mmBatch(t, cfg, p)
			law := 1000 / (st.MeanRespMs + think)
			holds := math.Abs(st.ThroughputTPS-law) <= 1e-12*law
			name := fmt.Sprintf("%v/think=%g", c, think)
			if c.failures {
				knownMiss(t, name, holds, "a pending strike stretches the batch clock")
				continue
			}
			if !holds {
				t.Errorf("%s: %v tps, the law gives %v", name, st.ThroughputTPS, law)
			}
		}
	}
}
