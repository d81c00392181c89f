package ocb

import (
	"errors"
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
