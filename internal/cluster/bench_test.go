package cluster

import (
	"testing"

	"repro/internal/ocb"
)

// BenchmarkDSTCObserveBuild replays the §4.4 observation phase on a warmed
// DSTC policy: 1000 depth-3 hierarchy traversals over the
// DSTCExperimentParams base, then BuildClusters. One op is one replay and
// one build; the link table and the cluster scratch are recycled, so a
// warmed op allocates nothing.
func BenchmarkDSTCObserveBuild(b *testing.B) {
	db, err := ocb.Generate(ocb.DSTCExperimentParams(), 1000)
	if err != nil {
		b.Fatal(err)
	}
	txs := ocb.GenerateHierarchyWorkload(db, 2000, 1000, 3)
	d := NewDSTC(DefaultDSTCParams())
	op := func() int {
		for _, tx := range txs {
			prev := ocb.NilRef
			for _, o := range tx.Ops {
				d.Observe(o.Object(), prev, o.Write())
				prev = o.Object()
			}
			d.EndTransaction()
		}
		return len(d.BuildClusters())
	}
	if op() == 0 {
		b.Fatal("the replay built no clusters")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
