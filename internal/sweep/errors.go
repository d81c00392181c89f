package sweep

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
)

// FailurePolicy decides what the cell scheduler does after recording a
// cell that failed at run time (a panic or a blown CellTimeout). A cell is
// a pure function of the spec, the options and its coordinates, so it runs
// once; resuming the journal, which records only completed cells, runs
// failed cells again.
type FailurePolicy uint8

const (
	// FailFast stops the sweep at the first failed cell and returns the
	// partial Result alongside the cell's *CellError. It is the default.
	FailFast FailurePolicy = iota
	// SkipFailed continues with the remaining cells; the sweep returns a
	// partial Result and no error.
	SkipFailed
)

// String returns the policy name (the CLI's -on-error values).
func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "fail"
	case SkipFailed:
		return "skip"
	default:
		return fmt.Sprintf("FailurePolicy(%d)", uint8(p))
	}
}

// ParseFailurePolicy reads a policy name: "fail" (or the empty string)
// stops at the first failed cell, "skip" records it and continues.
func ParseFailurePolicy(name string) (FailurePolicy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "fail":
		return FailFast, nil
	case "skip":
		return SkipFailed, nil
	default:
		return FailFast, fmt.Errorf("sweep: unknown failure policy %q (fail|skip)", name)
	}
}

// CellStatus is the lifecycle state of one grid cell in a (possibly
// interrupted or partially failed) sweep result.
type CellStatus uint8

const (
	// CellPending: the cell never ran — the campaign was cancelled or
	// failed before reaching it. Its PointResult carries coordinates and
	// labels but no values.
	CellPending CellStatus = iota
	// CellCompleted: the cell ran (or was replayed from a journal) and its
	// metric vector is valid.
	CellCompleted
	// CellFailed: the cell panicked or timed out at run time;
	// PointResult.Err holds the CellError.
	CellFailed
)

// String returns the status name.
func (s CellStatus) String() string {
	switch s {
	case CellPending:
		return "pending"
	case CellCompleted:
		return "completed"
	case CellFailed:
		return "failed"
	default:
		return fmt.Sprintf("CellStatus(%d)", uint8(s))
	}
}

// CellError is one grid cell's failure, with everything needed to
// reproduce it in isolation: the cell's position and axis values, the
// derived replication seed, and — when the failure was a panic — the
// recovered stack. It wraps the underlying error, so errors.Is/As see
// through it.
type CellError struct {
	// Sweep is the spec's name.
	Sweep string
	// Index is the flat row-major cell index; Coords the per-axis indices.
	Index  int
	Coords []int
	// Cell renders the position as "axis=label axis=label".
	Cell string
	// Seed is the cell's derived replication seed (cellSeed).
	Seed uint64
	// Err is the underlying error.
	Err error
	// Stack is the panic-site goroutine stack when the failure was a
	// recovered panic, nil otherwise.
	Stack []byte
}

// Error summarizes the failure in one line.
func (e *CellError) Error() string {
	kind := ""
	if e.Stack != nil {
		kind = " (panic)"
	}
	return fmt.Sprintf("sweep %q cell %s (seed %d): failed%s: %v",
		e.Sweep, e.Cell, e.Seed, kind, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// newCellError builds a CellError for one failed cell, lifting the panic
// stack out of a recovered core.PanicError (or a sweep-layer cellPanic) so
// reports can print it.
func newCellError(sweepName string, index int, coords []int, cell string, seed uint64, err error) *CellError {
	ce := &CellError{
		Sweep:  sweepName,
		Index:  index,
		Coords: append([]int(nil), coords...),
		Cell:   cell,
		Seed:   seed,
		Err:    err,
	}
	var pe *core.PanicError
	if errors.As(err, &pe) {
		ce.Stack = pe.Stack
	}
	var cp *cellPanic
	if errors.As(err, &cp) {
		ce.Stack = cp.stack
	}
	return ce
}

// cellPanic is a panic recovered in the sweep layer itself (a Point.Apply
// mutator, base-cache construction, …) — the cell scheduler's counterpart
// of core.PanicError, which covers panics inside replication bodies.
type cellPanic struct {
	value interface{}
	stack []byte
}

func (p *cellPanic) Error() string {
	return fmt.Sprintf("sweep: cell setup panicked: %v", p.value)
}
