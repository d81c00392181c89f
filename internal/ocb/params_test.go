package ocb

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestValidateRejectsNOBeyondOIDs pins the OID bound: an NO past MaxNO is
// refused with a typed error naming the limit (before any generation could
// size a table by it or wrap an int32 OID), while MaxNO itself passes the
// bound.
func TestValidateRejectsNOBeyondOIDs(t *testing.T) {
	for _, no := range []int{MaxNO + 1, 3_000_000_000} {
		p := DefaultParams()
		p.NO = no
		err := p.Validate()
		var lim *NOLimitError
		if !errors.As(err, &lim) || lim.NO != no {
			t.Fatalf("NO = %d: Validate() = %v, want *NOLimitError", no, err)
		}
		if !strings.Contains(err.Error(), strconv.Itoa(MaxNO)) {
			t.Errorf("NO = %d: error %q does not name the limit %d", no, err, MaxNO)
		}
		if _, err := Generate(p, 1); !errors.As(err, &lim) {
			t.Errorf("NO = %d: Generate() = %v, want *NOLimitError", no, err)
		}
	}
	p := DefaultParams()
	p.NO = MaxNO
	var lim *NOLimitError
	if err := p.Validate(); errors.As(err, &lim) {
		t.Errorf("NO = MaxNO rejected: %v", err)
	}
}

// TestValidateRejectsInstanceSizeBeyondInt32 pins the instance-size bound:
// a BaseSize·SizeMult past MaxInstanceSize would wrap Object.Size (an
// int32), so it is refused with a typed error naming the limit, while the
// largest representable product passes.
func TestValidateRejectsInstanceSizeBeyondInt32(t *testing.T) {
	for _, c := range []struct{ base, mult int }{
		{100_000_000, 31},
		{MaxInstanceSize, 2},
		{MaxInstanceSize/31 + 1, 31},
		{math.MaxInt64, math.MaxInt64},
	} {
		p := DefaultParams()
		p.BaseSize, p.SizeMult = c.base, c.mult
		err := p.Validate()
		var lim *InstanceSizeLimitError
		if !errors.As(err, &lim) || lim.BaseSize != c.base || lim.SizeMult != c.mult {
			t.Fatalf("BaseSize %d SizeMult %d: Validate() = %v, want *InstanceSizeLimitError", c.base, c.mult, err)
		}
		if !strings.Contains(err.Error(), strconv.Itoa(MaxInstanceSize)) {
			t.Errorf("BaseSize %d SizeMult %d: error %q does not name the limit %d", c.base, c.mult, err, MaxInstanceSize)
		}
		if _, err := Generate(p, 1); !errors.As(err, &lim) {
			t.Errorf("BaseSize %d SizeMult %d: Generate() = %v, want *InstanceSizeLimitError", c.base, c.mult, err)
		}
	}
	for _, c := range []struct{ base, mult int }{{MaxInstanceSize / 31, 31}, {MaxInstanceSize, 1}} {
		p := DefaultParams()
		p.NO, p.NC = 40, 4
		p.BaseSize, p.SizeMult = c.base, c.mult
		db, err := Generate(p, 1)
		if err != nil {
			t.Fatalf("BaseSize %d SizeMult %d rejected: %v", c.base, c.mult, err)
		}
		for o := 0; o < db.NumObjects(); o++ {
			if size := db.SizeOf(OID(o)); size < 1 {
				t.Fatalf("BaseSize %d SizeMult %d: object %d has size %d", c.base, c.mult, o, size)
			}
		}
	}
}

// TestValidateRejectsRefsBeyondInt32 pins the reference bound: an
// NO·MaxNRef past MaxRefs would overflow an eager base's int32 reference
// offsets, so every layout refuses it with a typed error naming the limit,
// before generation sizes any arena by MaxNRef, while the largest
// representable product passes validation.
func TestValidateRejectsRefsBeyondInt32(t *testing.T) {
	for _, layout := range []Layout{LayoutEager, LayoutEagerV2, LayoutStream} {
		for _, c := range []struct{ no, maxNRef int }{
			{20000, 2_000_000_000},
			{MaxRefs/100 + 1, 100},
			{MaxNO, 2},
			{20000, math.MaxInt64},
		} {
			p := DefaultParams()
			p.NO, p.MaxNRef, p.Layout = c.no, c.maxNRef, layout
			err := p.Validate()
			var lim *RefLimitError
			if !errors.As(err, &lim) || lim.NO != c.no || lim.MaxNRef != c.maxNRef {
				t.Fatalf("%v, NO %d MaxNRef %d: Validate() = %v, want *RefLimitError", layout, c.no, c.maxNRef, err)
			}
			if !strings.Contains(err.Error(), strconv.Itoa(MaxRefs)) {
				t.Errorf("%v, NO %d MaxNRef %d: error %q does not name the limit %d", layout, c.no, c.maxNRef, err, MaxRefs)
			}
			if _, err := Generate(p, 1); !errors.As(err, &lim) {
				t.Errorf("%v, NO %d MaxNRef %d: Generate() = %v, want *RefLimitError", layout, c.no, c.maxNRef, err)
			}
		}
		for _, c := range []struct{ no, maxNRef int }{{MaxRefs / 100, 100}, {50, MaxRefs / 50}, {MaxNO, 1}} {
			p := DefaultParams()
			p.NO, p.MaxNRef, p.Layout = c.no, c.maxNRef, layout
			if err := p.Validate(); err != nil {
				t.Errorf("%v, NO %d MaxNRef %d rejected: %v", layout, c.no, c.maxNRef, err)
			}
		}
	}
}

// TestValidateRejectsNRefTBeyondUint8 pins the reference-type bound: an
// NRefT past MaxNRefT would wrap ClassRef.Type (a uint8), so it is refused
// with a typed error naming the limit, while MaxNRefT itself generates
// every type in range, with and without a type-0 bias.
func TestValidateRejectsNRefTBeyondUint8(t *testing.T) {
	for _, n := range []int{MaxNRefT + 1, 1 << 20} {
		p := DefaultParams()
		p.NRefT = n
		err := p.Validate()
		var lim *NRefTLimitError
		if !errors.As(err, &lim) || lim.NRefT != n {
			t.Fatalf("NRefT = %d: Validate() = %v, want *NRefTLimitError", n, err)
		}
		if !strings.Contains(err.Error(), strconv.Itoa(MaxNRefT)) {
			t.Errorf("NRefT = %d: error %q does not name the limit %d", n, err, MaxNRefT)
		}
	}
	for _, bias := range []float64{0, 0.5} {
		p := DefaultParams()
		p.NRefT = MaxNRefT
		p.TypeZeroBias = bias
		p.MaxNRef = 200
		p.NO = 500
		db, err := Generate(p, 1)
		if err != nil {
			t.Fatalf("NRefT = MaxNRefT, bias %v rejected: %v", bias, err)
		}
		top := 0
		for _, c := range db.Classes {
			for _, cr := range c.Refs {
				top = max(top, int(cr.Type))
			}
		}
		if top < MaxNRefT-16 {
			t.Errorf("NRefT = MaxNRefT, bias %v: highest drawn type %d, want types near %d", bias, top, MaxNRefT-1)
		}
	}
}

// TestEveryParamsFieldMatters checks that generation reads every Params
// field: from each entry's setup, its move must change the generated base
// or its workload. A field that no code reads still enters every sweep
// journal fingerprint, so it fails here, and so does a new field without
// an entry.
func TestEveryParamsFieldMatters(t *testing.T) {
	// share gives one transaction type probability 0.4 and the other three
	// 0.2 each. Their weights stay equal to each other, so only the picked
	// field can change which types are drawn.
	share := func(pick func(*Params) *float64) func(*Params) {
		return func(p *Params) {
			p.PSet, p.PSimple, p.PHier, p.PStoch = 0.2, 0.2, 0.2, 0.2
			*pick(p) = 0.4
		}
	}
	cases := map[string]struct{ setup, move func(*Params) }{
		"NC":             {move: func(p *Params) { p.NC = 12 }},
		"MaxNRef":        {move: func(p *Params) { p.MaxNRef = 4 }},
		"BaseSize":       {move: func(p *Params) { p.BaseSize = 20 }},
		"SizeMult":       {move: func(p *Params) { p.SizeMult = 5 }},
		"NO":             {move: func(p *Params) { p.NO = 600 }},
		"NRefT":          {move: func(p *Params) { p.NRefT = 2 }},
		"TypeZeroBias":   {move: func(p *Params) { p.TypeZeroBias = 0.6 }},
		"ClassRefDist":   {move: func(p *Params) { p.ClassRefDist = Zipf }},
		"ClassLocality":  {move: func(p *Params) { p.ClassLocality = 2 }},
		"ObjClassDist":   {move: func(p *Params) { p.ObjClassDist = Zipf }},
		"ObjectLocality": {move: func(p *Params) { p.ObjectLocality = 5 }},
		"ZipfTheta": {
			setup: func(p *Params) { p.RootDist = Zipf },
			move:  func(p *Params) { p.ZipfTheta = 0.5 },
		},
		"Layout":       {move: func(p *Params) { p.Layout = LayoutEagerV2 }},
		"ColdN":        {move: func(p *Params) { p.ColdN = 5 }},
		"HotN":         {move: func(p *Params) { p.HotN = 60 }},
		"PSet":         {move: share(func(p *Params) *float64 { return &p.PSet })},
		"SetDepth":     {move: func(p *Params) { p.SetDepth = 1 }},
		"PSimple":      {move: share(func(p *Params) *float64 { return &p.PSimple })},
		"SimDepth":     {move: func(p *Params) { p.SimDepth = 1 }},
		"PHier":        {move: share(func(p *Params) *float64 { return &p.PHier })},
		"HieDepth":     {move: func(p *Params) { p.HieDepth = 2 }},
		"PStoch":       {move: share(func(p *Params) *float64 { return &p.PStoch })},
		"StoDepth":     {move: func(p *Params) { p.StoDepth = 10 }},
		"RootDist":     {move: func(p *Params) { p.RootDist = Zipf }},
		"HotRootCount": {move: func(p *Params) { p.HotRootCount = 20 }},
		"WriteProb":    {move: func(p *Params) { p.WriteProb = 0.3 }},
	}
	digest := func(p Params) string {
		db, err := Generate(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		w := new(Workload)
		w.GenerateInto(db, 8)
		return baseDigest(db) + "/" + workloadDigest(w)
	}
	typ := reflect.TypeOf(Params{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		c, ok := cases[name]
		if !ok {
			t.Errorf("Params.%s has no entry: give it a setup and a move, or delete it if nothing reads it", name)
			continue
		}
		p := smallParams()
		if c.setup != nil {
			c.setup(&p)
		}
		before := digest(p)
		c.move(&p)
		if digest(p) == before {
			t.Errorf("moving Params.%s changed neither the base nor its workload", name)
		}
	}
	for name := range cases {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("entry %q names no Params field", name)
		}
	}
}
