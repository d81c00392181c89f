package core

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/ocb"
)

// The golden determinism tests pin the simulation's observable outputs to
// hard-coded values captured from the seed run. Any refactor of the
// transaction pipeline (pooling, state machines, dense lock tables, buffer
// recycling) must reproduce these values bit for bit: floats are compared
// through their exact hex representation, so even a one-ulp drift in the
// Welford accumulators or a reordered event fails the test.

// hexF renders a float64 exactly (no rounding), so golden strings are
// bit-precise.
func hexF(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// fingerprintBatch folds every metric of one batch into a comparable string.
func fingerprintBatch(st BatchStats) string {
	return fmt.Sprintf("tx=%d ab=%d rd=%d wr=%d io=%d hit=%d miss=%d hr=%s el=%s mean=%s med=%s p95=%s tps=%s du=%s cu=%s mo=%s",
		st.Transactions, st.Aborts, st.Reads, st.Writes, st.IOs, st.Hits, st.Misses,
		hexF(st.HitRatio), hexF(st.ElapsedMs), hexF(st.MeanRespMs), hexF(st.MedianRespMs),
		hexF(st.P95RespMs), hexF(st.ThroughputTPS), hexF(st.DiskUtilization),
		hexF(st.CPUUtilization), hexF(st.MPLOccupancy))
}

// fingerprintResult folds a replicated experiment's aggregate into a string.
func fingerprintResult(res *Result) string {
	return fmt.Sprintf("ios=%s/%s rd=%s wr=%s hr=%s resp=%s tp=%s",
		hexF(res.IOs.Mean()), hexF(res.IOs.Variance()),
		hexF(res.Reads.Mean()), hexF(res.Writes.Mean()),
		hexF(res.HitRatio.Mean()), hexF(res.RespMs.Mean()), hexF(res.Throughput.Mean()))
}

// goldenO2Config is a reduced Figure 6 point: O₂-style page server,
// read-only Table 5 mix.
func goldenO2Config() Config {
	cfg := DefaultConfig()
	cfg.System = PageServer
	cfg.BufferPages = 256
	cfg.MPL = 10
	cfg.GetLockMs = 0.5
	cfg.RelLockMs = 0.5
	cfg.ServerCPUs = 2
	cfg.StorageOverhead = 1.33
	return cfg
}

func goldenParams() ocb.Params {
	p := ocb.DefaultParams()
	p.NC = 10
	p.NO = 1500
	p.HotN = 120
	return p
}

// TestGoldenFig6Point pins a small Figure 6 point end to end: generate the
// base and workload, run one batch, and compare every BatchStats field to
// the seed run.
func TestGoldenFig6Point(t *testing.T) {
	const want = "tx=120 ab=0 rd=4391 wr=0 io=4391 hit=7951 miss=4391 hr=0x1.49d7981f87329p-01 el=0x1.c78c5f3b64c4bp+16 mean=0x1.e5eb103f5a6b6p+09 med=0x1.c75db22d0e88p+08 p95=0x1.79a12bd3c47acp+11 tps=0x1.076b37595cf16p+00 du=0x1.d5ddc4c56b011p-02 cu=0x0p+00 mo=0x1.9999999999999p-04"
	db, err := ocb.Generate(goldenParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(goldenO2Config(), db, 42)
	if err != nil {
		t.Fatal(err)
	}
	w := ocb.GenerateWorkload(db, 43)
	got := fingerprintBatch(run.ExecuteBatch(w.Hot))
	if got != want {
		t.Errorf("golden Fig6 point diverged:\n got  %s\n want %s", got, want)
	}
}

// TestGoldenWriteContention pins a concurrent write mix: several users
// above MPL capacity, write locks, wait-die aborts and restarts. This is
// the path the pooled continuation and dense lock table must reproduce
// exactly, including the abort count and response-time quantiles.
func TestGoldenWriteContention(t *testing.T) {
	const want = "tx=100 ab=2003 rd=5384 wr=237 io=5621 hit=55899 miss=5384 hr=0x1.d304b5368b25bp-01 el=0x1.29c4d70a3d498p+16 mean=0x1.196710cb2937cp+11 med=0x1.001c7ae14782p+11 p95=0x1.3df5604188918p+12 tps=0x1.4fd4b5e9492f4p+00 du=0x1.cbbc5798057a1p-01 cu=0x1.076eeb835cdc8p-07 mo=0x1.fb434da743748p-01"
	cfg := goldenO2Config()
	cfg.System = Centralized
	cfg.Users = 3
	cfg.MPL = 2
	cfg.ThinkTimeMs = 2
	p := goldenParams()
	p.WriteProb = 0.02
	p.HotN = 100
	db, err := ocb.Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(cfg, db, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := ocb.GenerateWorkload(db, 8)
	got := fingerprintBatch(run.ExecuteBatch(w.Hot))
	if got != want {
		t.Errorf("golden contention batch diverged:\n got  %s\n want %s", got, want)
	}
	if run.locks.Deaths() == 0 {
		t.Error("golden contention batch exercised no wait-die deaths; config no longer stresses the lock table")
	}
}

// TestGoldenTexasReserve pins the Texas emulation switches: reservation on
// load, swizzle-dirty swap-outs, and one-ahead prefetching — the buffer
// eviction/reservation states of the transaction pipeline.
func TestGoldenTexasReserve(t *testing.T) {
	const want = "tx=120 ab=0 rd=6454 wr=3918 io=10372 hit=1517 miss=6454 hr=0x1.85c3d056d7c21p-03 el=0x1.b835c28f5bf57p+16 mean=0x1.d58ead65b76c3p+09 med=0x1.907c28f5c23ap+09 p95=0x1.7418ac0831459p+11 tps=0x1.1098e01a3d567p+00 du=0x1.e6df82632106fp-01 cu=0x1.fb61eff075p-12 mo=0x1.999999999999ap-04"
	cfg := goldenO2Config()
	cfg.System = Centralized
	cfg.BufferPages = 128
	cfg.ReserveOnLoad = true
	cfg.SwizzleDirty = true
	cfg.Prefetch = OneAhead
	p := goldenParams()
	p.WriteProb = 0.05
	db, err := ocb.Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(cfg, db, 11)
	if err != nil {
		t.Fatal(err)
	}
	w := ocb.GenerateWorkload(db, 12)
	got := fingerprintBatch(run.ExecuteBatch(w.Hot))
	if got != want {
		t.Errorf("golden Texas batch diverged:\n got  %s\n want %s", got, want)
	}
}

// goldenMatrixWant pins every cell of TestGoldenMatrix, keyed by cell name.
var goldenMatrixWant = map[string]string{
	"Centralized/users=1/fail=false":   "tx=120 ab=0 rd=1439 wr=0 io=1439 hit=5731 miss=1439 hr=0x1.993e326a1cfdfp-01 el=0x1.1bf50a3d70d28p+14 mean=0x1.2ee33e1f6746fp+07 med=0x1.6dd70a3d7105p+05 p95=0x1.06189374bc68cp+09 tps=0x1.a69952a514cf8p+02 du=0x1.515f3a6894ce1p-01 cu=0x1.e2b910a95063fp-09 mo=0x1.999999999999ap-04",
	"Centralized/users=1/fail=true":    "tx=120 ab=0 rd=2786 wr=0 io=2786 hit=5032 miss=2786 hr=0x1.498b8f186d7fcp-01 el=0x1.d0f20c4338cbdp+14 mean=0x1.ce715535bcad3p+07 med=0x1.7fc28f5c29cp+05 p95=0x1.d7f8096512e15p+09 tps=0x1.021842985a116p+02 du=0x1.72c4ce25d1a23p-01 cu=0x1.26d07e23be291p-09 mo=0x1.7deed4d3d310cp-04",
	"Centralized/users=8/fail=false":   "tx=120 ab=2536 rd=1273 wr=122 io=1395 hit=41291 miss=1273 hr=0x1.f0afe94a13017p-01 el=0x1.18cfc28f5c51p+14 mean=0x1.1df160418960ep+10 med=0x1.ab370a3d7119p+09 p95=0x1.9ece76c8b4372p+11 tps=0x1.ab55346abbaeep+02 du=0x1.d284edad8ebd8p-01 cu=0x1.8023a084b3a25p-05 mo=0x1.f34802d0901c2p-01",
	"Centralized/users=8/fail=true":    "tx=120 ab=3424 rd=3162 wr=62 io=3224 hit=45802 miss=3162 hr=0x1.deef9ff74cd09p-01 el=0x1.43628a12687e8p+15 mean=0x1.4d7ea15a2f75ep+11 med=0x1.fcecccccca71p+09 p95=0x1.3f8456d8d4183p+13 tps=0x1.73132741c1458p+01 du=0x1.e4ad0eb7da457p-01 cu=0x1.794e0f031d831p-06 mo=0x1.f519e8600bb03p-01",
	"Object Server/users=1/fail=false": "tx=120 ab=0 rd=886 wr=0 io=886 hit=5807 miss=886 hr=0x1.bc3911401122bp-01 el=0x1.1f50e3d70a636p+14 mean=0x1.32786a7efa03ap+07 med=0x1.c4c28f5c2a52p+05 p95=0x1.0339624dd3197p+09 tps=0x1.a1a89ca04c3c7p+02 du=0x1.2cf86b21eba85p-01 cu=0x1.dd146bcdc0976p-09 mo=0x1.9999999999999p-04",
	"Object Server/users=1/fail=true":  "tx=120 ab=0 rd=2230 wr=0 io=2230 hit=4463 miss=2230 hr=0x1.5568eab202ad7p-01 el=0x1.4066acb8d1b06p+15 mean=0x1.29795b2238195p+08 med=0x1.007e147ae144p+06 p95=0x1.5b7593047f5cep+10 tps=0x1.7687d4264173ep+01 du=0x1.5f3b8d89bbc4ap-01 cu=0x1.abd0d7fcbaf6p-10 mo=0x1.6485a254611c2p-04",
	"Object Server/users=8/fail=false": "tx=120 ab=1697 rd=771 wr=75 io=846 hit=21785 miss=771 hr=0x1.ee7fc014569eap-01 el=0x1.8142b33333765p+13 mean=0x1.863c68ca12029p+09 med=0x1.066170a3d78ccp+09 p95=0x1.39b8072b0231dp+11 tps=0x1.377a3ecd7d1a2p+03 du=0x1.ababcce44828ap-01 cu=0x1.2bc33c9c3a16dp-05 mo=0x1.f2bbdbc1d136p-01",
	"Object Server/users=8/fail=true":  "tx=120 ab=1652 rd=1023 wr=59 io=1082 hit=25147 miss=1023 hr=0x1.ebfc5267bafa1p-01 el=0x1.0bed5436284edp+14 mean=0x1.e094fec22a272p+09 med=0x1.3f255c28f5ee8p+09 p95=0x1.894a616c15987p+11 tps=0x1.bfe2119eedaa9p+02 du=0x1.91f2bc012f2d8p-01 cu=0x1.f419abbf217d7p-06 mo=0x1.b90f6a77542aep-01",
	"Page Server/users=1/fail=false":   "tx=120 ab=0 rd=886 wr=0 io=886 hit=5807 miss=886 hr=0x1.bc3911401122bp-01 el=0x1.49beb439583ap+14 mean=0x1.5fba59d6c4822p+07 med=0x1.2eba5e353ffp+06 p95=0x1.2751c432ca3f8p+09 tps=0x1.6beaea901ea55p+02 du=0x1.063e708b9cdfcp-01 cu=0x0p+00 mo=0x1.999999999999ap-04",
	"Page Server/users=1/fail=true":    "tx=120 ab=0 rd=2332 wr=0 io=2332 hit=4361 miss=2332 hr=0x1.4d9b67c4f1948p-01 el=0x1.4081a6bc2fc24p+15 mean=0x1.4a634875aecc4p+08 med=0x1.5e872b020c5ap+06 p95=0x1.81a2aa000abacp+10 tps=0x1.76684e11701d5p+01 du=0x1.6ef08a19a236ep-01 cu=0x0p+00 mo=0x1.8bd6c2ecd8b62p-04",
	"Page Server/users=8/fail=false":   "tx=120 ab=1642 rd=782 wr=76 io=858 hit=17604 miss=782 hr=0x1.ea3932c3fd372p-01 el=0x1.96d820c49bb4cp+13 mean=0x1.9bf6809d4961ap+09 med=0x1.3a8ed916871a4p+09 p95=0x1.51529ad42c413p+11 tps=0x1.26f402c018d0bp+03 du=0x1.9ba9053b35bfbp-01 cu=0x0p+00 mo=0x1.f6eec0bc08fb9p-01",
	"Page Server/users=8/fail=true":    "tx=120 ab=1371 rd=1180 wr=54 io=1234 hit=18902 miss=1180 hr=0x1.e1ea542fa0231p-01 el=0x1.253ec14b96dfap+14 mean=0x1.02e2a19f56c0bp+10 med=0x1.6c2bc6a7ef9dcp+09 p95=0x1.cc03a627efd37p+11 tps=0x1.9936c53f00b78p+02 du=0x1.a3f46491d763ep-01 cu=0x0p+00 mo=0x1.bfde3472f75fp-01",
	"DB Server/users=1/fail=false":     "tx=120 ab=0 rd=886 wr=0 io=886 hit=5807 miss=886 hr=0x1.bc3911401122bp-01 el=0x1.15099db22d51ap+14 mean=0x1.2781b94696bd7p+07 med=0x1.93d2f1a9fc96p+05 p95=0x1.f69d7dbf4907ep+08 tps=0x1.b1277d7e83a6dp+02 du=0x1.38230102a2095p-01 cu=0x1.eec7acdb50dc6p-09 mo=0x1.999999999999ap-04",
	"DB Server/users=1/fail=true":      "tx=120 ab=0 rd=2140 wr=0 io=2140 hit=4553 miss=2140 hr=0x1.5c4b6d46f3a54p-01 el=0x1.1538b2884888cp+15 mean=0x1.1a68ecb18dc85p+08 med=0x1.eb6c8b439632p+05 p95=0x1.61ff0d9f8d821p+10 tps=0x1.b0dded1fc65b6p+01 du=0x1.85d4781e40e9fp-01 cu=0x1.ee73a52ae7dfp-10 mo=0x1.872fd36ca9bacp-04",
	"DB Server/users=8/fail=false":     "tx=120 ab=1957 rd=778 wr=77 io=855 hit=25332 miss=778 hr=0x1.f0be722a65393p-01 el=0x1.7f3b53f7cf35p+13 mean=0x1.816f814c0ceabp+09 med=0x1.2b54fdf3b6e3p+09 p95=0x1.4600c2f837b48p+11 tps=0x1.39205f78936f8p+03 du=0x1.b37f0bf2f6091p-01 cu=0x1.5cd4cb05f1ef6p-05 mo=0x1.efa1d071a095cp-01",
	"DB Server/users=8/fail=true":      "tx=120 ab=2222 rd=1111 wr=53 io=1164 hit=27665 miss=1111 hr=0x1.ec3b7f9bcac3bp-01 el=0x1.0bcf8d111545bp+14 mean=0x1.e9a90d928516cp+09 med=0x1.2a6083126f238p+09 p95=0x1.c69794783097bp+11 tps=0x1.c013de7726e6ap+02 du=0x1.b001ad5d3a4e1p-01 cu=0x1.1311c8c73134p-05 mo=0x1.c61db230f3a9p-01",
}

// TestGoldenMatrix pins one batch per cell of the system class × user
// population × failure grid, all on a finite network: the four
// SystemClass values (OneAhead prefetch on the Centralized cells); one user,
// or 8 thinking users at MPL 4 on one server CPU with a 5% write mix; and
// failures off, or striking every 2,000 ms on average with 50 ms repairs.
// The cells reach what the four goldens above miss — pending failure
// strikes, ties at think-time boundaries, CPU and disk queues, network
// delays — which is where a transaction must go back through the calendar
// rather than continue in place.
func TestGoldenMatrix(t *testing.T) {
	for _, sys := range []SystemClass{Centralized, ObjectServer, PageServer, DBServer} {
		for _, multi := range []bool{false, true} {
			for _, fail := range []bool{false, true} {
				name := fmt.Sprintf("%v/users=1/fail=%v", sys, fail)
				cfg := goldenO2Config()
				cfg.System = sys
				cfg.NetThroughputMBps = 8
				cfg.NetLatencyMs = 0.1
				if sys == Centralized {
					cfg.Prefetch = OneAhead
				}
				p := goldenParams()
				if multi {
					name = fmt.Sprintf("%v/users=8/fail=%v", sys, fail)
					cfg.Users = 8
					cfg.MPL = 4
					cfg.ThinkTimeMs = 5
					cfg.ServerCPUs = 1
					p.WriteProb = 0.05
				}
				if fail {
					cfg.Failures = FailureParams{Enabled: true, MTBFMs: 2000, MeanRepairMs: 50}
				}
				t.Run(name, func(t *testing.T) {
					db, err := ocb.Generate(p, 17)
					if err != nil {
						t.Fatal(err)
					}
					run, err := NewRun(cfg, db, 17)
					if err != nil {
						t.Fatal(err)
					}
					w := ocb.GenerateWorkload(db, 18)
					got := fingerprintBatch(run.ExecuteBatch(w.Hot))
					if want := goldenMatrixWant[name]; got != want {
						t.Errorf("golden matrix cell diverged:\n got  %s\n want %s", got, want)
					}
				})
			}
		}
	}
}

// TestGoldenExperimentAggregate pins the replicated aggregate (Welford
// accumulators folded in replication order) for a 3-replication experiment
// at both worker counts.
func TestGoldenExperimentAggregate(t *testing.T) {
	const want = "ios=0x1.f62p+11/0x1.bda44p+22 rd=0x1.f62p+11 wr=0x0p+00 hr=0x1.862f9735be7e5p-01 resp=0x1.126133791aefap+10 tp=0x1.f123990d173f9p-01"
	for _, workers := range []int{1, 4} {
		e := Experiment{
			Config:       goldenO2Config(),
			Params:       goldenParams(),
			Seed:         1999,
			Replications: 3,
			Workers:      workers,
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprintResult(res)
		if got != want {
			t.Errorf("golden aggregate diverged at Workers=%d:\n got  %s\n want %s", workers, got, want)
		}
	}
}
