package ocb

import (
	"errors"
	"math"
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
		for o := range db.Objects {
			if db.Objects[o].Size < 1 {
				t.Fatalf("BaseSize %d SizeMult %d: object %d has size %d", c.base, c.mult, o, db.Objects[o].Size)
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
