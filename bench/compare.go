package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json -compare reads: each end-to-end
// metric's direction and regression bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// by the same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return med, med, med
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), med, at(3)
}

// compareFiles prints, per workload, the median and quartiles of every
// end-to-end metric in two results files, flags each metric whose median
// in b is worse than in a by more than its bound, and diffs sim_digest and
// the modelled-side counts of runs with the same seed. Any regression or
// difference makes it return an error.
func compareFiles(aPath, bPath, specPath string, w io.Writer) error {
	var sp spec
	var a, b results
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &sp}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	problems := 0
	for _, wl := range workloads {
		ra, rb := runsOf(a, wl.name), runsOf(b, wl.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s (%d vs %d runs)\n", wl.name, len(ra), len(rb))
		for _, m := range sp.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > m.Bound {
				flag = fmt.Sprintf("  REGRESSION: %.1f%% worse, bound %.0f%%", worse*100, m.Bound*100)
				problems++
			}
			fmt.Fprintf(w, "  %-14s a %12.4f [%.4f, %.4f]  b %12.4f [%.4f, %.4f] %s%s\n",
				m.Name, am, a1, a3, bm, b1, b3, m.Unit, flag)
		}
		if va, vb := p90s(ra), p90s(rb); len(va) > 0 && len(vb) > 0 {
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			fmt.Fprintf(w, "  %-14s a %12.4f [%.4f, %.4f]  b %12.4f [%.4f, %.4f] ms, not bounded\n",
				"op_ms_p90", am, a1, a3, bm, b1, b3)
		}
		problems += diffModelled(w, ra, rb)
	}
	if problems > 0 {
		return fmt.Errorf("%d regressions or modelled-side differences", problems)
	}
	return nil
}

// diffModelled checks that every run of a seed, in either file, has the
// same sim_digest and modelled-side counts: the bit-identity check for a
// speed-only change.
func diffModelled(w io.Writer, ra, rb []*record) int {
	first := map[uint64]*record{}
	diffs, compared := 0, 0
	for _, r := range append(append([]*record(nil), ra...), rb...) {
		f, ok := first[r.Seed]
		if !ok {
			first[r.Seed] = r
			continue
		}
		compared++
		if r.SimDigest != f.SimDigest {
			fmt.Fprintf(w, "  DIFFERS: seed %d sim_digest %.16s… vs %.16s…\n", r.Seed, r.SimDigest, f.SimDigest)
			diffs++
		}
		names := make([]string, 0, len(f.Counts))
		for c := range f.Counts {
			names = append(names, c)
		}
		sort.Strings(names)
		for _, c := range names {
			if r.Counts[c] != f.Counts[c] {
				fmt.Fprintf(w, "  DIFFERS: seed %d %s %v vs %v\n", r.Seed, c, r.Counts[c], f.Counts[c])
				diffs++
			}
		}
	}
	if diffs == 0 {
		fmt.Fprintf(w, "  sim_digest and modelled counts identical across %d same-seed pairs\n", compared)
	}
	return diffs
}

func runsOf(res results, name string) []*record {
	var out []*record
	for _, r := range res.Runs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []*record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func p90s(rs []*record) []float64 {
	var out []float64
	for _, r := range rs {
		if r.OpMsP90 > 0 {
			out = append(out, r.OpMsP90)
		}
	}
	return out
}
