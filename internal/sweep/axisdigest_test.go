package sweep

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
)

// digestSpecs covers every registry row: each enum choice in four
// spellings, repeated, paired and beside a bad one, and all; every switch
// spelling; numeric lists and ranges, duplicates, rounding, NaN, ±Inf,
// values past the int range, empty and malformed text; plus specs that
// are not name=values at all.
func digestSpecs() []string {
	specs := []string{"", "mpl", "=1", "=", "nosuch=1", " MPL =1", "Pgrep=lru", "mpl==1", " mpl = 1 , 2 "}
	mixed := func(s string) string {
		b := []byte(strings.ToLower(s))
		for i := 0; i < len(b); i += 2 {
			b[i] = strings.ToUpper(string(b[i]))[0]
		}
		return string(b)
	}
	numbers := []string{
		"0", "1", "2.5", "2.4", "-2.5", "0,1,2", "1:3:0.5", "0:0.3:0.1", "1:9:4", "-1", "1e19", "-1e19",
		"1e300", "NaN", "Inf", "+Inf", "-Inf", "1,1,2", "0.1,0.1,0.2", "2,1,2,1", "", ",", "x", "1,x",
		"1:2", "5:1:1", "1:2:0", "0:inf:1", "1:4:nan", "1:2:1:4", "-0,0", "9.223372036854776e+18",
		"9.223372036854775e+18", "1:1000000000:1", "0:1e300:1e-10", "1e-3:5e-3:1e-3", "2:2:1",
		"1,NaN", "all", "on", "3000000000",
	}
	switches := []string{
		"on", "off", "true", "false", "1", "0", "yes", "no", "ON", "Off", "on,off", "off,on", "on,on",
		"1,0,1", "all", " ALL ", "all,on", "maybe", "2", "", ",", "on,maybe", "0.5", "NaN",
	}
	for _, p := range Params() {
		var values []string
		switch p.Kind {
		case KindEnum:
			values = []string{"all", " All ", "all,", "nosuch", "", ",", "0", "0,1", "all," + p.Choices[0], "NaN",
				strings.Join(p.Choices, ",")}
			for i, c := range p.Choices {
				next := p.Choices[(i+1)%len(p.Choices)]
				values = append(values, c, strings.ToUpper(c), strings.ToLower(c), mixed(c), c+","+c,
					" "+c+" ", c+","+next, next+","+c, c+",nosuch", c+",,"+next)
			}
		case KindBool:
			values = switches
		default:
			values = numbers
		}
		for _, v := range values {
			specs = append(specs, p.Name+"="+v)
		}
		specs = append(specs, strings.ToUpper(p.Name)+"=all", p.Name)
	}
	return specs
}

// digestBases returns two bases that differ in every field a row writes,
// so a point's writes show against either.
func digestBases() ([2]core.Config, [2]ocb.Params) {
	c, p := core.DefaultConfig(), ocb.DefaultParams()
	c.System, c.BufferPolicy, c.Placement, c.Clustering = core.DBServer, "2Q", 0, core.GreedyGraph
	c.Prefetch, c.PhysicalOIDs, c.DSTCParams.TriggerCandidates = core.OneAhead, true, 33
	c.MPL, c.Users, c.BufferPages, c.PageSize, c.ServerCPUs = 7, 9, 77, 8192, 3
	c.NetThroughputMBps, c.NetLatencyMs, c.ThinkTimeMs, c.ObjectCPUMs = 3.5, 0.25, 12, 0.7
	c.GetLockMs, c.RelLockMs, c.DiskSeekMs, c.DiskLatencyMs, c.DiskTransferMs = 0.3, 0.2, 9, 4, 2
	c.Failures = core.FailureParams{Enabled: true, MTBFMs: 123, MeanRepairMs: 4}
	p.NO, p.NC, p.MaxNRef, p.BaseSize, p.HotN, p.ColdN, p.WriteProb = 333, 11, 4, 60, 21, 5, 0.3
	p.SetDepth, p.SimDepth, p.HieDepth, p.StoDepth = 2, 3, 4, 9
	p.HotRootCount, p.ObjectLocality, p.ClassLocality = 17, 19, 6
	p.RootDist, p.ZipfTheta, p.Layout = ocb.Zipf, 0.5, ocb.LayoutStream
	return [2]core.Config{core.DefaultConfig(), c}, [2]ocb.Params{ocb.DefaultParams(), p}
}

// TestAxisSpecDigest pins what ParseAxis builds from every digestSpecs
// spec: the error text, or the axis's name and generative flag and each
// point's X, Label, SeedDelta and the fields its Apply writes onto both
// digestBases. Any change to an axis, a refusal or its wording moves the
// digest; the log names the spec count so a re-pin can say what it covers.
func TestAxisSpecDigest(t *testing.T) {
	const want = "df49c6fbdc8fae70ca5ba2ab5be698fd6b1140459037184650ce5215fe520c07"
	cfgs, params := digestBases()
	specs := digestSpecs()
	h := sha256.New()
	for _, spec := range specs {
		fmt.Fprintf(h, "%q\n", spec)
		ax, err := ParseAxis(spec)
		if err != nil {
			fmt.Fprintf(h, "error %s\n", err)
			continue
		}
		fmt.Fprintf(h, "axis %q %t %d\n", ax.Name, ax.Generative, len(ax.Points))
		for _, pt := range ax.Points {
			fmt.Fprintf(h, "point %x %q %d\n", math.Float64bits(pt.X), pt.Label, pt.SeedDelta)
			for k := range cfgs {
				c, p := cfgs[k], params[k]
				pt.Apply(&c, &p)
				fmt.Fprintf(h, "writes %s\n", writtenFields(cfgs[k], c, params[k], p))
			}
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("%d specs", len(specs))
	if got != want {
		t.Errorf("axis digest %s, want %s", got, want)
	}
}

// writtenFields lists, sorted, each Config and Params field that differs
// between a base and its copy after a point's Apply, with its new value.
func writtenFields(c0, c1 core.Config, p0, p1 ocb.Params) string {
	names := map[string]bool{}
	changedFields(reflect.ValueOf(c0), reflect.ValueOf(c1), "Config", names)
	changedFields(reflect.ValueOf(p0), reflect.ValueOf(p1), "Params", names)
	var out []string
	for name := range names {
		path := strings.Split(name, ".")
		v := reflect.ValueOf(c1)
		if path[0] == "Params" {
			v = reflect.ValueOf(p1)
		}
		for _, f := range path[1:] {
			v = v.FieldByName(f)
		}
		out = append(out, fmt.Sprintf("%s=%v", name, v.Interface()))
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}
