package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ocb"
)

// journalledRun executes the small grid with a fresh journal at path and
// returns the uninterrupted result.
func journalledRun(t *testing.T, s *Sweep, path string, o Options) *Result {
	t.Helper()
	j, err := s.StartJournal(path, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Journal = j
	res, err := s.RunContext(context.Background(), o)
	if cerr := j.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestJournalRoundTrip(t *testing.T) {
	s := robustGrid(t)
	o := Options{Replications: 2, Seed: 31}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	want := journalledRun(t, &s, path, o)

	d, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Truncated {
		t.Fatal("clean journal reported truncated")
	}
	if d.Header.Sweep != s.Name || d.Header.Cells != 4 || d.Header.Replications != 2 {
		t.Fatalf("header = %+v", d.Header)
	}
	if d.Len() != 4 {
		t.Fatalf("journal holds %d cells, want 4", d.Len())
	}
	for i := range want.Points {
		pr, ok := d.Cells[i]
		if !ok {
			t.Fatalf("cell %d missing from journal", i)
		}
		if pr.Status != CellCompleted {
			t.Fatalf("cell %d replays with status %v", i, pr.Status)
		}
		if !samePointResult(pr, &want.Points[i]) {
			t.Fatalf("journalled cell %d diverged:\n%+v\n%+v", i, pr, want.Points[i])
		}
	}
}

// TestJournalTornTailDropped: a record torn mid-write by a kill is
// detected (checksum) and dropped; the intact prefix still replays.
func TestJournalTornTailDropped(t *testing.T) {
	s := robustGrid(t)
	o := Options{Replications: 2, Seed: 31}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	journalledRun(t, &s, path, o)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Keep header + 2 intact cells, then half of the third cell's record.
	torn := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Truncated {
		t.Fatal("torn tail not reported")
	}
	if d.Len() != 2 {
		t.Fatalf("torn journal replays %d cells, want 2", d.Len())
	}
}

// TestJournalMidFileCorruption: a corrupt record that is NOT the final
// line means the file was damaged, not torn — refuse it.
func TestJournalMidFileCorruption(t *testing.T) {
	s := robustGrid(t)
	o := Options{Replications: 2, Seed: 31}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	journalledRun(t, &s, path, o)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Flip a digit inside the second cell record without breaking JSON.
	lines[2] = strings.Replace(lines[2], `"n":2`, `"n":3`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil || !strings.Contains(err.Error(), "corruption") {
		t.Fatalf("mid-file corruption not rejected: %v", err)
	}
}

func TestJournalRejectsNonJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-journal.jsonl")
	if err := os.WriteFile(path, []byte("{\"kind\":\"something-else\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("foreign file accepted as journal")
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(empty); err == nil {
		t.Fatal("empty file accepted as journal")
	}
}

// TestJournalRejectsOldVersion: a journal from an older format version is
// refused by its version, before any fingerprint comparison, so the error
// names the real cause instead of a spec mismatch.
func TestJournalRejectsOldVersion(t *testing.T) {
	s := robustGrid(t)
	o := Options{Replications: 2, Seed: 31}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	journalledRun(t, &s, path, o)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	current := fmt.Sprintf(`"version":%d`, journalVersion)
	if !strings.Contains(lines[0], current) {
		t.Fatalf("header %q does not carry %s", lines[0], current)
	}
	lines[0] = strings.Replace(lines[0], current, `"version":1`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.ResumeJournal(path, o)
	want := fmt.Sprintf("has version 1, this build reads %d", journalVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("version-1 journal: err = %v, want it to contain %q", err, want)
	}
}

// flatFieldNames lists t's fields the way %+v walks them: every field by
// name, and a nested struct's fields as dotted paths after the struct.
func flatFieldNames(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		out = append(out, prefix+f.Name)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, flatFieldNames(f.Type, prefix+f.Name+".")...)
		}
	}
	return out
}

// TestFingerprintFieldNames pins the field lists the journal fingerprint
// hashes. Sweep.fingerprint formats core.Config and ocb.Params with %+v,
// so adding, removing or renaming a field changes every fingerprint and
// orphans every existing journal. Such a change must bump journalVersion,
// so old journals are refused by version rather than by a spec mismatch;
// then update the lists here.
func TestFingerprintFieldNames(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  reflect.Type
		want string
	}{
		{"core.Config", reflect.TypeOf(core.Config{}), "System NetThroughputMBps NetLatencyMs " +
			"PageSize BufferPages BufferPolicy Prefetch Clustering DSTCParams " +
			"DSTCParams.ObservationPeriod DSTCParams.MinUsage DSTCParams.MinLink " +
			"DSTCParams.MaxClusterSize DSTCParams.TriggerCandidates Placement " +
			"DiskSeekMs DiskLatencyMs DiskTransferMs MPL GetLockMs RelLockMs Users " +
			"ThinkTimeMs ServerCPUs ObjectCPUMs StorageOverhead PhysicalOIDs " +
			"ReserveOnLoad ReserveCold SwizzleDirty Failures Failures.Enabled " +
			"Failures.MTBFMs Failures.MeanRepairMs"},
		{"ocb.Params", reflect.TypeOf(ocb.Params{}), "NC MaxNRef BaseSize SizeMult NO " +
			"NRefT TypeZeroBias ClassRefDist ClassLocality ObjClassDist " +
			"ObjectLocality ZipfTheta Layout ColdN HotN PSet " +
			"SetDepth PSimple SimDepth PHier HieDepth PStoch StoDepth RootDist " +
			"HotRootCount WriteProb"},
	} {
		if got := strings.Join(flatFieldNames(c.typ, ""), " "); got != c.want {
			t.Errorf("%s fields changed, which changes every sweep journal fingerprint: "+
				"bump journalVersion (now %d) and update this list.\n got  %s\n want %s",
				c.name, journalVersion, got, c.want)
		}
	}
}

// TestResumeRejectsMismatchedRun: a journal written under different
// result-affecting options (here the seed) must not resume — silent
// acceptance would merge numbers from two different experiments.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	s := robustGrid(t)
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	journalledRun(t, &s, path, Options{Replications: 2, Seed: 31})

	if _, _, err := s.ResumeJournal(path, Options{Replications: 2, Seed: 32}); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	if _, _, err := s.ResumeJournal(path, Options{Replications: 3, Seed: 31}); err == nil {
		t.Fatal("replication-count mismatch accepted")
	}
	other := s
	other.Name = "different-spec"
	if _, _, err := other.ResumeJournal(path, Options{Replications: 2, Seed: 31}); err == nil {
		t.Fatal("different spec accepted")
	}
	// RunContext re-verifies even when handed a JournalData directly.
	d, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(context.Background(), Options{Replications: 2, Seed: 99, Resume: d}); err == nil {
		t.Fatal("RunContext accepted a mismatched Resume journal")
	}
}

// TestResumeRejectsCellWithoutSpecMetrics: a journal cell whose checksum,
// index and seed are valid but whose values do not name the spec's
// metrics, in order, is refused with an error naming the cell, and no
// result. Rendering reads Values by metric position, so replaying such a
// cell would panic (no values) or mis-merge.
func TestResumeRejectsCellWithoutSpecMetrics(t *testing.T) {
	s := robustGrid(t)
	o := Options{Replications: 2, Seed: 31}
	metrics := s.metrics()
	if len(metrics) < 2 {
		t.Fatalf("the grid selects %d metrics, want at least 2", len(metrics))
	}
	values := func(ms ...Metric) []Value {
		vs := make([]Value, len(ms))
		for k, m := range ms {
			vs[k] = Value{Metric: m}
		}
		return vs
	}
	renamed := append([]Metric(nil), metrics...)
	renamed[1] = "renamed"
	for _, c := range []struct {
		name   string
		values []Value
	}{
		{"no values", nil},
		{"one value fewer", values(metrics[:len(metrics)-1]...)},
		{"renamed metric", values(renamed...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "grid.jsonl")
			j, err := s.StartJournal(path, o)
			if err != nil {
				t.Fatal(err)
			}
			coords := []int{0, 0}
			pr := &PointResult{Coords: coords, Values: c.values}
			if err := j.RecordCell(0, cellSeed(o.Seed, s.Axes, coords), pr); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			rj, d, err := s.ResumeJournal(path, o)
			if err != nil {
				t.Fatal(err)
			}
			defer rj.Close()
			ro := o
			ro.Journal, ro.Resume = rj, d
			res, err := s.RunContext(context.Background(), ro)
			if err == nil || !strings.Contains(err.Error(), "journal cell buffpages=48 mpl=1") {
				t.Fatalf("err = %v, want a refusal naming the cell", err)
			}
			if res != nil {
				t.Fatal("a refused journal returned a result")
			}
		})
	}
}

// TestResumeAfterResume: a resumed run appends to the same journal, so an
// interrupted resume resumes again (the append path writes records the
// reader accepts).
func TestResumeAfterResume(t *testing.T) {
	s := robustGrid(t)
	o := Options{Replications: 2, Seed: 31}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	want := journalledRun(t, &s, path, o)

	// Truncate the journal to its first cell, then resume to completion.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	j, d, err := s.ResumeJournal(path, o)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("truncated journal replays %d cells, want 1", d.Len())
	}
	ro := o
	ro.Journal, ro.Resume = j, d
	if _, err := s.RunContext(context.Background(), ro); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The extended journal replays the full grid, byte-identical.
	j2, full, err := s.ResumeJournal(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if full.Len() != 4 {
		t.Fatalf("extended journal replays %d cells, want 4", full.Len())
	}
	for i := range want.Points {
		if !samePointResult(full.Cells[i], &want.Points[i]) {
			t.Fatalf("cell %d diverged after resume-append", i)
		}
	}
}

// FuzzReadJournal: ReadJournal never panics, whatever the file holds, and
// every cell it returns has a non-negative index, below Header.Cells when
// the header counts cells. The committed seeds are a clean journal, a torn
// last line, a corrupt line mid-file, a wrong version, and a cell without
// values.
func FuzzReadJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "journal.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := ReadJournal(path)
		if err != nil {
			return
		}
		for i := range d.Cells {
			if i < 0 || (d.Header.Cells > 0 && i >= d.Header.Cells) {
				t.Fatalf("cell index %d outside [0, %d)", i, d.Header.Cells)
			}
		}
	})
}
