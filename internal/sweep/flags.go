package sweep

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ocb"
)

// Flags binds one command-line flag per registry row, so a command sets
// the model in the same words a -sweep axis sweeps it: -mpl 4 writes what
// -sweep mpl=4 writes. A flag holds its text as given, and Apply parses it
// after flag.Parse, so a refused value is an error the caller reports, not
// the flag package's usage exit. A switch row is a boolean flag: -physoids
// alone turns it on, -physoids=off turns it off.
type Flags struct {
	values []*flagValue // in registry name order
}

type flagValue struct {
	param Param
	text  string
	set   bool
}

func (v *flagValue) String() string { return v.text }

func (v *flagValue) Set(s string) error {
	v.text, v.set = s, true
	return nil
}

func (v *flagValue) IsBoolFlag() bool { return v.param.Kind == KindBool }

// BindFlags defines a flag on fs for every registry row.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	for _, p := range Params() {
		v := &flagValue{param: p}
		usage := p.Doc
		if p.Kind == KindEnum {
			usage += ": " + strings.Join(p.Choices, " | ")
		}
		fs.Var(v, p.Name, usage)
		f.values = append(f.values, v)
	}
	return f
}

// Apply parses each given flag as a one-point axis and writes its value
// into cfg and p. A flag takes one value: a list or a range is refused,
// like any value its axis refuses, with an error that names the flag.
func (f *Flags) Apply(cfg *core.Config, p *ocb.Params) error {
	for _, v := range f.values {
		if !v.set {
			continue
		}
		name := v.param.Name
		axis, err := ParseAxis(name + "=" + v.text)
		if err != nil {
			return fmt.Errorf("-%s %s: %w", name, v.text, err)
		}
		if strings.ContainsAny(v.text, ",:") || len(axis.Points) != 1 {
			return fmt.Errorf("-%s %s: a flag takes one value; sweep several with -sweep %s=%s", name, v.text, name, v.text)
		}
		axis.Points[0].Apply(cfg, p)
	}
	return nil
}
