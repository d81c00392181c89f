package core

import (
	"context"
	"testing"

	"repro/internal/ocb"
)

// foldRows aggregates repRows exactly like Experiment.Run.
func foldRows(rows []repRow) *Result {
	res := &Result{Confidence: Confidence}
	for i := range rows {
		res.IOs.Add(rows[i].ios)
		res.Reads.Add(rows[i].reads)
		res.Writes.Add(rows[i].writes)
		res.HitRatio.Add(rows[i].hitRatio)
		res.RespMs.Add(rows[i].respMs)
		res.Throughput.Add(rows[i].tp)
		res.NetMessages.Add(rows[i].netMsgs)
		res.NetBytes.Add(rows[i].netBytes)
		res.LockWaits.Add(rows[i].lockWaits)
		res.ReorgIOs.Add(rows[i].reorgIOs)
		res.BypassRate.Add(rows[i].bypass)
		if rows[i].calPeak > res.CalendarPeak {
			res.CalendarPeak = rows[i].calPeak
		}
	}
	return res
}

// TestContextReuseMatchesFreshContexts is the determinism contract of the
// replication-context engine: running every replication on one warmed,
// repeatedly reset context must equal running each on a brand-new context
// (the rebuild-everything engine), bit for bit, at every worker count. The
// Texas configuration adds what a reset must drop besides the buffer: the
// reservation sets the store kept for the previous base.
func TestContextReuseMatchesFreshContexts(t *testing.T) {
	for _, cfg := range []Config{smallConfig(), texasFaultConfig(true, true, false)} {
		e := Experiment{Config: cfg, Params: smallParams(), Seed: 301, Replications: 6}

		// Rebuild-everything reference: a fresh context per replication.
		rows := make([]repRow, e.Replications)
		for rep := range rows {
			row, err := e.runRep(context.Background(), &repContext{}, rep)
			if err != nil {
				t.Fatal(err)
			}
			rows[rep] = row
		}
		want := foldRows(rows)

		for _, workers := range []int{1, 3} {
			reused := e
			reused.Workers = workers
			got, err := reused.Run()
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("ReserveOnLoad=%v Workers=%d context reuse diverged from fresh contexts:\n%+v\n%+v",
					cfg.ReserveOnLoad, workers, *got, *want)
			}
		}
	}
}

// TestContextReuseMatchesFreshDSTC is the same contract for the §4.4
// engine, whose replications additionally exercise reorganization and the
// clusterer's in-place reset.
func TestContextReuseMatchesFreshDSTC(t *testing.T) {
	p := ocb.DSTCExperimentParams()
	p.NC = 8
	p.NO = 900
	p.HotRootCount = 15
	cfg := smallConfig()
	cfg.BufferPages = 2048
	cfg.Clustering = DSTC
	e := DSTCExperiment{Config: cfg, Params: p, Transactions: 60, Depth: 3, Seed: 88, Replications: 4}

	rows := make([]dstcRow, e.Replications)
	for rep := range rows {
		row, err := e.runRep(context.Background(), &repContext{}, rep)
		if err != nil {
			t.Fatal(err)
		}
		rows[rep] = row
	}

	reusedRows := make([]dstcRow, e.Replications)
	c := &repContext{}
	for rep := range reusedRows {
		row, err := e.runRep(context.Background(), c, rep)
		if err != nil {
			t.Fatal(err)
		}
		reusedRows[rep] = row
	}
	for rep := range rows {
		if rows[rep] != reusedRows[rep] {
			t.Fatalf("replication %d diverged on a reused context:\n%+v\n%+v",
				rep, rows[rep], reusedRows[rep])
		}
	}
}

// TestSharedPoolMatchesPrivateContexts: handing one ContextPool to a
// sequence of experiments (a sweep) must not change any result, even when
// the configuration differs between them (the pooled context rebuilds its
// model) and the database shrinks and grows across points.
func TestSharedPoolMatchesPrivateContexts(t *testing.T) {
	mkExps := func() []Experiment {
		small := smallParams()
		big := small
		big.NO = 2400
		cfgA := smallConfig()
		cfgB := smallConfig()
		cfgB.BufferPages = 96 // config change forces a model rebuild mid-pool
		return []Experiment{
			{Config: cfgA, Params: big, Seed: 11, Replications: 3},
			{Config: cfgB, Params: small, Seed: 12, Replications: 3},
			{Config: cfgA, Params: small, Seed: 13, Replications: 3},
		}
	}
	for _, workers := range []int{1, 4} {
		var want, got []Result
		for _, e := range mkExps() {
			e.Workers = workers
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, *res)
		}
		pool := NewContextPool()
		for _, e := range mkExps() {
			e.Workers = workers
			e.Pool = pool
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, *res)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Workers=%d experiment %d diverged under a shared pool:\n%+v\n%+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestWarmContextAllocs pins the tentpole's steady-state claim: the second
// and later replications on a warmed repContext perform (near-)zero
// allocations — only the per-batch user closures remain.
func TestWarmContextAllocs(t *testing.T) {
	e := Experiment{Config: smallConfig(), Params: smallParams(), Seed: 500, Replications: 64, Workers: 1}
	c := &repContext{}
	for rep := 0; rep < 8; rep++ { // warm every arena and pool to its high-water mark
		if _, err := e.runRep(context.Background(), c, rep); err != nil {
			t.Fatal(err)
		}
	}
	rep := 8
	allocs := testing.AllocsPerRun(8, func() {
		if _, err := e.runRep(context.Background(), c, rep); err != nil {
			t.Fatal(err)
		}
		rep++
	})
	// Steady state measures ≈ 7 allocs per replication: ExecuteBatch's
	// per-batch closures plus occasional pool/high-water growth when a
	// replication's layout exceeds anything seen before (each replication
	// draws a different base). The pre-context engine paid tens of
	// thousands of allocations here.
	if allocs > 32 {
		t.Errorf("warm replication performed %v allocations, want ≤ 32", allocs)
	}
}
