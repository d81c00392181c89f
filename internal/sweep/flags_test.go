package sweep

import (
	"flag"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
)

// applyFlags parses args into a fresh binder and applies it to the
// defaults.
func applyFlags(args ...string) (core.Config, ocb.Params, error) {
	fs := flag.NewFlagSet("model", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	model := BindFlags(fs)
	cfg, p := core.DefaultConfig(), ocb.DefaultParams()
	if err := fs.Parse(args); err != nil {
		return cfg, p, err
	}
	return cfg, p, model.Apply(&cfg, &p)
}

// TestFlagsWriteWhatAxesWrite pins the binder against the axis parser:
// every registry row is a flag, and -name v writes exactly what the
// one-point axis name=v writes, for every choice of an enum, both states
// of a switch and several numbers, one of them fractional.
func TestFlagsWriteWhatAxesWrite(t *testing.T) {
	for _, p := range Params() {
		var values []string
		switch p.Kind {
		case KindEnum:
			values = p.Choices
		case KindBool:
			values = []string{"on", "off", "true", "0"}
		default:
			values = []string{"0", "7", "2.5"}
		}
		wrote := false
		for _, v := range values {
			cfg, params, err := applyFlags("-" + p.Name + "=" + v)
			if err != nil {
				t.Errorf("-%s %s: %v", p.Name, v, err)
				continue
			}
			axis, err := ParseAxis(p.Name + "=" + v)
			if err != nil {
				t.Fatal(err)
			}
			wantCfg, wantParams := core.DefaultConfig(), ocb.DefaultParams()
			axis.Points[0].Apply(&wantCfg, &wantParams)
			if !reflect.DeepEqual(cfg, wantCfg) || !reflect.DeepEqual(params, wantParams) {
				t.Errorf("-%s %s wrote\n %+v %+v\nthe axis writes\n %+v %+v", p.Name, v, cfg, params, wantCfg, wantParams)
			}
			if !reflect.DeepEqual(cfg, core.DefaultConfig()) || !reflect.DeepEqual(params, ocb.DefaultParams()) {
				wrote = true
			}
		}
		if !wrote {
			t.Errorf("-%s: no value %v moved the defaults", p.Name, values)
		}
	}
}

// TestFlagsCombine: a switch stands alone, unset flags keep the base, and
// several flags apply together.
func TestFlagsCombine(t *testing.T) {
	cfg, p, err := applyFlags("-physoids", "-no", "600", "-netthru", "Inf", "-clustp", "DSTC", "-dstctrigger", "500")
	if err != nil {
		t.Fatal(err)
	}
	want, wantP := core.DefaultConfig(), ocb.DefaultParams()
	want.PhysicalOIDs = true
	want.NetThroughputMBps = math.Inf(1)
	want.Clustering = core.DSTC
	want.DSTCParams.TriggerCandidates = 500
	wantP.NO = 600
	if !reflect.DeepEqual(cfg, want) || !reflect.DeepEqual(p, wantP) {
		t.Errorf("got %+v %+v", cfg, p)
	}
	if cfg, p, err := applyFlags(); err != nil || !reflect.DeepEqual(cfg, core.DefaultConfig()) || !reflect.DeepEqual(p, ocb.DefaultParams()) {
		t.Errorf("no flags moved the base: %+v %+v %v", cfg, p, err)
	}
}

// TestFlagsRefuse: a flag takes one value its axis accepts; anything else
// is an error from Apply, not from flag parsing, and it names the flag.
func TestFlagsRefuse(t *testing.T) {
	for _, args := range [][]string{
		{"-mpl", "1,2"},
		{"-mpl", "1:3:1"},
		{"-mpl", "4:4:1"},
		{"-pgrep", "nosuch"},
		{"-pgrep", "LRU,FIFO"},
		{"-clustp", "all"},
		{"-physoids=maybe"},
		{"-mpl", "1e19"},
		{"-writeprob", "NaN"},
		{"-buffpages", "x"},
	} {
		_, _, err := applyFlags(args...)
		if err == nil || !strings.HasPrefix(err.Error(), strings.SplitN(args[0], "=", 2)[0]+" ") {
			t.Errorf("%v: %v, want an error naming the flag", args, err)
		}
	}
}
