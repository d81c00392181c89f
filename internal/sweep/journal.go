package sweep

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/stats"
)

// The sweep journal is a JSONL checkpoint of a running grid: one header
// line identifying the spec (by fingerprint), then one line per completed
// cell carrying everything the merged result needs — coordinates, labels,
// the derived cell seed, the metric intervals, and the full replicated
// aggregate (core.Result / core.DSTCResult, whose stats.Sample fields
// round-trip through JSON bit for bit). Each cell line also carries a
// SHA-256 hex checksum of its own payload, so a torn tail line (the
// process died mid-write) or a corrupted record is detected and the
// journal truncates to its last good cell instead of resuming from
// garbage.
//
// Because grid cells are independent replicated experiments with
// per-cell derived seeds (cellSeed), a resumed sweep that replays
// journalled cells and runs only the remainder produces a Result
// byte-identical to an uninterrupted run — pinned by
// TestMidGridCancelAndResume and the CI resume smoke.

// journalKind and journalVersion identify the format; ReadJournal rejects
// anything else. Version 2 removed the sharded kernel's Config field and
// load-balance metric, which changed every fingerprint and the core.Result
// encoding. Version 3 removed core.Config's two event-calendar fields,
// which again changed every fingerprint. Version 4 removed three unread
// ocb.Params fields and the fingerprint's confidence and DSTC-phase terms,
// which changed every fingerprint once more. Version 5 changed what the
// bypass metric counts: the events the kernel continued in place, where
// version 4 counted dispatches from a since-removed next-event register.
// The fingerprint cannot see the kernel, so without the bump a resumed
// journal would mix the two definitions in one CSV. Journals of older
// versions must be rerun.
const (
	journalKind    = "voodb-sweep-journal"
	journalVersion = 5
)

// JournalHeader is the journal's first line: enough spec identity to
// refuse resuming a journal against a different sweep or options.
type JournalHeader struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	Sweep   string `json:"sweep"`
	// Fingerprint hashes the sweep spec and the result-affecting options
	// (axes, points, seeds, metrics, replications, protocol, base
	// config/params, ShareBases); see Sweep.fingerprint.
	Fingerprint  string   `json:"fingerprint"`
	Axes         []string `json:"axes"`
	Shape        []int    `json:"shape"`
	Metrics      []string `json:"metrics"`
	Seed         uint64   `json:"seed"`
	Replications int      `json:"replications"`
	Cells        int      `json:"cells"`
}

// journalValue is one metric interval of a journalled cell.
type journalValue struct {
	Metric   string         `json:"metric"`
	Interval stats.Interval `json:"interval"`
}

// journalCell is one completed cell: the PointResult in wire form plus an
// integrity checksum.
type journalCell struct {
	Index  int              `json:"index"`
	Coords []int            `json:"coords"`
	X      float64          `json:"x"`
	Label  string           `json:"label"`
	Labels []string         `json:"labels"`
	Seed   uint64           `json:"seed"`
	Values []journalValue   `json:"values"`
	Result *core.Result     `json:"result,omitempty"`
	DSTC   *core.DSTCResult `json:"dstc,omitempty"`
	// Check is the SHA-256 hex of this record serialized with Check set to
	// "" — a per-line integrity fingerprint.
	Check string `json:"check"`
}

// checksum computes the record's integrity hex: the SHA-256 of its JSON
// encoding with the Check field blanked. encoding/json encodes a given
// struct deterministically, so the fingerprint is reproducible on read.
func (c *journalCell) checksum() (string, error) {
	saved := c.Check
	c.Check = ""
	b, err := json.Marshal(c)
	c.Check = saved
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Journal appends completed cells of one running sweep to a JSONL file.
// The cell scheduler writes from a single goroutine; every record is
// written as one complete line and synced before RecordCell returns, so a
// kill at any instant leaves at most one torn final line — which
// ReadJournal detects and drops.
type Journal struct {
	f    *os.File
	w    *bufio.Writer
	path string
}

// CreateJournal starts a new journal at path (truncating any existing
// file) and writes the header line.
func CreateJournal(path string, h JournalHeader) (*Journal, error) {
	h.Kind, h.Version = journalKind, journalVersion
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: create journal: %w", err)
	}
	j := &Journal{f: f, w: bufio.NewWriter(f), path: path}
	if err := j.writeLine(h); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// AppendJournal reopens an existing journal for appending — the resume
// path: replayed cells stay in place and newly completed cells extend the
// same file, so a resumed run that is itself interrupted resumes again.
func AppendJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: append journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// writeLine marshals v, writes it as one newline-terminated record, and
// syncs the file so the record survives the process dying next instant.
func (j *Journal) writeLine(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sweep: journal encode: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.w.Write(b); err != nil {
		return fmt.Errorf("sweep: journal write: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("sweep: journal flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweep: journal sync: %w", err)
	}
	return nil
}

// RecordCell appends one completed cell.
func (j *Journal) RecordCell(index int, seed uint64, pr *PointResult) error {
	c := journalCell{
		Index:  index,
		Coords: pr.Coords,
		X:      pr.X,
		Label:  pr.Label,
		Labels: pr.Labels,
		Seed:   seed,
		Result: pr.Result,
		DSTC:   pr.DSTC,
	}
	for _, v := range pr.Values {
		c.Values = append(c.Values, journalValue{Metric: string(v.Metric), Interval: v.Interval})
	}
	check, err := c.checksum()
	if err != nil {
		return err
	}
	c.Check = check
	return j.writeLine(&c)
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// JournalData is a parsed journal: the header plus every intact completed
// cell, keyed by flat cell index. Options.Resume feeds one to RunContext.
type JournalData struct {
	Header JournalHeader
	// Cells maps flat row-major cell index → replayable result.
	Cells map[int]*PointResult
	// Seeds records each journalled cell's derived seed, verified against
	// the resumed spec's own derivation before replay.
	Seeds map[int]uint64
	// Truncated reports that a torn or corrupt trailing record was
	// dropped (the interrupted run died mid-write); earlier intact cells
	// are still replayed.
	Truncated bool
}

// Len returns the number of replayable cells.
func (d *JournalData) Len() int { return len(d.Cells) }

// ReadJournal parses a journal written by Journal. A torn or corrupt
// final line is dropped (Truncated is set); corruption anywhere earlier
// is an error.
func ReadJournal(path string) (*JournalData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: read journal: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // cells with full aggregates are long lines
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("sweep: read journal %s: %w", path, err)
		}
		return nil, fmt.Errorf("sweep: journal %s is empty", path)
	}
	var h JournalHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("sweep: journal %s: bad header: %w", path, err)
	}
	if h.Kind != journalKind {
		return nil, fmt.Errorf("sweep: %s is not a sweep journal (kind %q)", path, h.Kind)
	}
	if h.Version != journalVersion {
		return nil, fmt.Errorf("sweep: journal %s has version %d, this build reads %d", path, h.Version, journalVersion)
	}

	d := &JournalData{Header: h, Cells: make(map[int]*PointResult), Seeds: make(map[int]uint64)}
	line := 1
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var c journalCell
		bad := ""
		if err := json.Unmarshal(raw, &c); err != nil {
			bad = fmt.Sprintf("unparseable record: %v", err)
		} else if want, err := c.checksum(); err != nil {
			bad = fmt.Sprintf("checksum: %v", err)
		} else if c.Check != want {
			bad = "checksum mismatch"
		} else if c.Index < 0 || (h.Cells > 0 && c.Index >= h.Cells) {
			bad = fmt.Sprintf("cell index %d out of range", c.Index)
		}
		if bad != "" {
			if !sc.Scan() { // final line: a torn write from the kill — drop it
				d.Truncated = true
				return d, nil
			}
			return nil, fmt.Errorf("sweep: journal %s line %d: %s (mid-file corruption)", path, line, bad)
		}
		pr := &PointResult{
			X:      c.X,
			Label:  c.Label,
			Coords: c.Coords,
			Labels: c.Labels,
			Result: c.Result,
			DSTC:   c.DSTC,
			Status: CellCompleted,
		}
		for _, v := range c.Values {
			pr.Values = append(pr.Values, Value{Metric: Metric(v.Metric), Interval: v.Interval})
		}
		d.Cells[c.Index] = pr
		d.Seeds[c.Index] = c.Seed
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: read journal %s: %w", path, err)
	}
	return d, nil
}
