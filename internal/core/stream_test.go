package core

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ocb"
)

// streamLayoutParams is goldenParams with the layout knob applied.
func streamLayoutParams(l ocb.Layout) ocb.Params {
	p := goldenParams()
	p.Layout = l
	return p
}

// runLayoutBatch generates a base in the given layout, runs one hot batch,
// and returns the exact fingerprint.
func runLayoutBatch(t *testing.T, cfg Config, p ocb.Params, seed uint64) string {
	t.Helper()
	db, err := ocb.Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(cfg, db, seed)
	if err != nil {
		t.Fatal(err)
	}
	w := ocb.GenerateWorkload(db, seed+1)
	return fingerprintBatch(run.ExecuteBatch(w.Hot))
}

// TestStreamBatchStatsIdentical pins the acceptance claim at unit scale:
// a streaming base simulates to hex-identical BatchStats as the eager-v2
// base it mirrors, across system classes (ObjectServer exercises the
// SizeOf network-shipping path) and a write-contention mix.
func TestStreamBatchStatsIdentical(t *testing.T) {
	cases := map[string]func() (Config, ocb.Params){
		"pageserver": func() (Config, ocb.Params) {
			return goldenO2Config(), goldenParams()
		},
		"objectserver": func() (Config, ocb.Params) {
			cfg := goldenO2Config()
			cfg.System = ObjectServer
			return cfg, goldenParams()
		},
		"contention": func() (Config, ocb.Params) {
			cfg := goldenO2Config()
			cfg.System = Centralized
			cfg.Users = 3
			cfg.MPL = 2
			cfg.ThinkTimeMs = 2
			p := goldenParams()
			p.WriteProb = 0.02
			p.HotN = 100
			return cfg, p
		},
		"dstcworkload": func() (Config, ocb.Params) {
			cfg := goldenO2Config()
			p := ocb.DSTCExperimentParams()
			p.NC = 10
			p.NO = 1500
			p.HotN = 120
			return cfg, p
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			cfg, p := mk()
			p.Layout = ocb.LayoutEagerV2
			want := runLayoutBatch(t, cfg, p, 42)
			p.Layout = ocb.LayoutStream
			got := runLayoutBatch(t, cfg, p, 42)
			if got != want {
				t.Errorf("stream batch diverged from eager-v2:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestStreamTinyCacheSimulation pins the cache-thrash acceptance: a
// NO-20000 base has about five objects per line of the 4096-line
// materialization cache, so the batch keeps evicting and re-deriving
// objects, yet it simulates to the same BatchStats as the eager-v2 base.
func TestStreamTinyCacheSimulation(t *testing.T) {
	cfg := goldenO2Config()
	p := streamLayoutParams(ocb.LayoutEagerV2)
	p.NO = 20000
	want := runLayoutBatch(t, cfg, p, 42)
	p.Layout = ocb.LayoutStream
	got := runLayoutBatch(t, cfg, p, 42)
	if got != want {
		t.Errorf("thrashing stream batch diverged from eager-v2:\n got  %s\n want %s", got, want)
	}
}

// TestStreamClusteringRejected pins the NewRun gate: clustering requires a
// reorganizable (eager) store.
func TestStreamClusteringRejected(t *testing.T) {
	p := streamLayoutParams(ocb.LayoutStream)
	db, err := ocb.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenO2Config()
	cfg.Clustering = DSTC
	if _, err := NewRun(cfg, db, 1); err == nil {
		t.Error("NewRun accepted clustering on a streaming base")
	}
	cfg.Clustering = NoClustering
	if _, err := NewRun(cfg, db, 1); err != nil {
		t.Errorf("NewRun rejected a clustering-free streaming run: %v", err)
	}
}

// TestClusteringOnStreamRefusedUpFront: both experiment kinds refuse
// clustering on a streaming layout before their first replication. A Base
// supplier that fails the test shows that no base is asked for, and a
// cancelled context shows that no replication started: one would have
// returned context.Canceled first.
func TestClusteringOnStreamRefusedUpFront(t *testing.T) {
	cfg := goldenO2Config()
	cfg.Clustering = DSTC
	p := streamLayoutParams(ocb.LayoutStream)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := Experiment{Config: cfg, Params: p, Seed: 1, Replications: 2,
		Base: func(rep int, seed uint64) (*ocb.Database, error) {
			t.Error("Experiment asked for a base")
			return nil, errors.New("no base")
		}}
	if _, err := e.RunContext(ctx); err == nil || !strings.Contains(err.Error(), "requires an eager object base") {
		t.Errorf("Experiment: %v, want the eager-base refusal", err)
	}
	d := DSTCExperiment{Config: cfg, Params: p, Transactions: 10, Depth: 3, Seed: 1, Replications: 2}
	if _, err := d.RunContext(ctx); err == nil || !strings.Contains(err.Error(), "requires an eager object base") {
		t.Errorf("DSTCExperiment: %v, want the eager-base refusal", err)
	}
}

// TestLargeStreamingSmoke is the million-object acceptance gate, run in CI
// under a GOMEMLIMIT the eager base could not fit in (set
// VOODB_LARGE_SMOKE=1 to enable): a 1M-object streaming base must simulate
// end to end with ≥ 10× less resident object-base memory than eager-v2 at
// hex-identical BatchStats. The streaming replication's model side (run
// set-up, workload and batch) must also allocate under
// streamModelAllocLimit in total, so no per-access table is sized by NO.
func TestLargeStreamingSmoke(t *testing.T) {
	if os.Getenv("VOODB_LARGE_SMOKE") == "" {
		t.Skip("set VOODB_LARGE_SMOKE=1 to run the 1M-object smoke")
	}
	p := ocb.DefaultParams()
	p.NO = 1_000_000
	p.HotN = 200
	p.HotRootCount = 500
	cfg := goldenO2Config()

	p.Layout = ocb.LayoutStream
	sdb, err := ocb.Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	streamResident := sdb.ResidentBytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run, err := NewRun(cfg, sdb, 42)
	if err != nil {
		t.Fatal(err)
	}
	w := ocb.GenerateWorkload(sdb, 43)
	stats := run.ExecuteBatch(w.Hot)
	runtime.ReadMemStats(&after)
	modelAlloc := after.TotalAlloc - before.TotalAlloc
	got := fingerprintBatch(stats)

	// The eager-v2 twin: measured second so the streaming run above really
	// executed under the low memory limit, not after a 100+ MB base was
	// already live.
	p.Layout = ocb.LayoutEagerV2
	edb, err := ocb.Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	eagerResident := edb.ResidentBytes()
	erun, err := NewRun(cfg, edb, 42)
	if err != nil {
		t.Fatal(err)
	}
	ew := ocb.GenerateWorkload(edb, 43)
	want := fingerprintBatch(erun.ExecuteBatch(ew.Hot))

	if got != want {
		t.Errorf("1M-object stream batch diverged from eager-v2:\n got  %s\n want %s", got, want)
	}
	if modelAlloc >= streamModelAllocLimit {
		t.Errorf("streaming replication allocated %.1f MB across NewRun, GenerateWorkload and ExecuteBatch, want < %.0f MB",
			float64(modelAlloc)/1e6, float64(streamModelAllocLimit)/1e6)
	}
	if eagerResident < 10*streamResident {
		t.Errorf("resident ratio %.1f× < 10× (eager-v2 %d B, streaming %d B)",
			float64(eagerResident)/float64(streamResident), eagerResident, streamResident)
	}
	t.Logf("1M objects: eager-v2 resident %.1f MB, streaming resident %.2f MB (%.0f×), streaming model allocation %.1f MB, batch %s",
		float64(eagerResident)/1e6, float64(streamResident)/1e6,
		float64(eagerResident)/float64(streamResident), float64(modelAlloc)/1e6, got)
}

// streamModelAllocLimit bounds what TestLargeStreamingSmoke's streaming
// replication may allocate outside the object base (3.3 MB measured). A
// table indexed by OID (8 MB at a million objects) would break it, and so
// would per-page tables beyond the buffer's one 4-byte-per-page frame
// index.
const streamModelAllocLimit = 6e6
