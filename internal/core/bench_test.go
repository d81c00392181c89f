package core

import (
	"testing"

	"repro/internal/ocb"
)

// BenchmarkTxnSubmitCommit measures one full transaction through the
// pipeline — admission, GETLOCK, object/page extraction, buffer access,
// treatment, RELLOCK, commit — on a warm model. With the pooled executor
// freelist, the dense lock table, and the recycled buffer scratch this is
// (near-)zero allocations per transaction in steady state.
func BenchmarkTxnSubmitCommit(b *testing.B) {
	p := ocb.DefaultParams()
	p.NC = 10
	p.NO = 1000
	p.HotN = 1
	db, err := ocb.Generate(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.System = Centralized
	cfg.BufferPages = 64
	cfg.MPL = 1
	run, err := NewRun(cfg, db, 1)
	if err != nil {
		b.Fatal(err)
	}
	// A ring of pre-generated transactions so generation cost stays out of
	// the measurement and the working set varies across iterations.
	g := ocb.NewGenerator(db, 2)
	txs := make([]ocb.Transaction, 64)
	for i := range txs {
		txs[i] = g.Next()
	}
	committed := 0
	done := func() { committed++ }
	// Warm every recycled structure (executor pool, lock pools, buffer
	// frames, eviction scratch, quantile capacity) so even -benchtime 1x
	// measures steady state.
	for i := range txs {
		run.submit(&txs[i], done)
		run.sim.Run()
	}
	committed = 0
	run.respDist.Reset()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.submit(&txs[i%len(txs)], done)
		run.sim.Run()
		if i%1024 == 0 {
			// The response-time quantile recorder accumulates one float
			// per commit; drain it so the benchmark isolates the pipeline.
			run.respDist.Reset()
		}
	}
	b.StopTimer()
	if committed != b.N {
		b.Fatalf("committed %d of %d transactions", committed, b.N)
	}
}

// BenchmarkTxnWriteContention measures the pipeline under a write mix with
// wait-die conflicts: aborts, the 1 ms restart pause, re-acquisition, and
// queued-grant dispatch all recycle the same executor.
func BenchmarkTxnWriteContention(b *testing.B) {
	p := ocb.DefaultParams()
	p.NC = 10
	p.NO = 1000
	p.HotN = 50
	p.WriteProb = 0.1
	db, err := ocb.Generate(p, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.System = Centralized
	cfg.BufferPages = 64
	cfg.MPL = 4
	cfg.Users = 4
	run, err := NewRun(cfg, db, 3)
	if err != nil {
		b.Fatal(err)
	}
	w := ocb.GenerateWorkload(db, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.ExecuteBatch(w.Hot)
	}
}

// BenchmarkTxnTexasReserve measures one warm transaction on the Texas
// fault path: texas-swap's configuration (systems.TexasWithMemory, which
// core's tests cannot import) scaled down to a 2000-object base on 128
// frames. Every fault reserves frames for the loaded object's reference
// pages, and those reservations evict dirty swizzled pages, which are
// written back, and clean reserved frames, which are not. The reservation
// sets come from the store's stored copies, so this is allocation-free in
// steady state.
func BenchmarkTxnTexasReserve(b *testing.B) {
	p := ocb.DefaultParams()
	p.NC = 20
	p.NO = 2000
	p.HotN = 1
	db, err := ocb.Generate(p, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := texasFaultConfig(true, true, false)
	cfg.BufferPages = 128
	run, err := NewRun(cfg, db, 5)
	if err != nil {
		b.Fatal(err)
	}
	g := ocb.NewGenerator(db, 6)
	txs := make([]ocb.Transaction, 64)
	for i := range txs {
		txs[i] = g.Next()
	}
	committed := 0
	done := func() { committed++ }
	// Two passes warm every recycled structure and store the reservation
	// sets of the objects the ring loads.
	for pass := 0; pass < 2; pass++ {
		for i := range txs {
			run.submit(&txs[i], done)
			run.sim.Run()
		}
	}
	if wb := run.buf.Writebacks(); wb == 0 || run.buf.Evictions() == wb {
		b.Fatalf("%d evictions, %d of them dirty: want both dirty and clean ones", run.buf.Evictions(), wb)
	}
	committed = 0
	run.respDist.Reset()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.submit(&txs[i%len(txs)], done)
		run.sim.Run()
		if i%1024 == 0 {
			run.respDist.Reset()
		}
	}
	b.StopTimer()
	if committed != b.N {
		b.Fatalf("committed %d of %d transactions", committed, b.N)
	}
}
