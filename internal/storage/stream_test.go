package storage

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/ocb"
)

// streamStoreParams exercises the extent arithmetic: shared head pages
// (small objects), spanning objects (size > page), and overhead rounding.
func streamStoreParams() map[string]ocb.Params {
	base := ocb.DefaultParams()
	base.NO = 2500
	base.NC = 20

	spanning := base
	spanning.BaseSize = 700
	spanning.SizeMult = 9 // up to 6300 B on 4096 B pages: spanning classes

	tiny := base
	tiny.BaseSize = 10
	tiny.SizeMult = 3 // many classes per page: multi-class pages

	return map[string]ocb.Params{"base": base, "spanning": spanning, "tiny": tiny}
}

// TestStreamPlacementMatchesEager pins that the streaming store's
// arithmetic extents reproduce the eager first-fit layout exactly: same
// page count, same Pages/PageOf and ObjectRefPages for every object, same
// ObjectsOn for every page — for both placement policies and overheads.
func TestStreamPlacementMatchesEager(t *testing.T) {
	for name, p := range streamStoreParams() {
		for _, overhead := range []float64{1.0, 1.36} {
			for _, placement := range []Placement{Sequential, OptimizedSequential} {
				t.Run(fmt.Sprintf("%s/ov%.2f/%v", name, overhead, placement), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Overhead = overhead
					cfg.Placement = placement

					pe := p
					pe.Layout = ocb.LayoutEagerV2
					edb, err := ocb.Generate(pe, 42)
					if err != nil {
						t.Fatal(err)
					}
					es, err := New(edb, cfg)
					if err != nil {
						t.Fatal(err)
					}

					ps := p
					ps.Layout = ocb.LayoutStream
					sdb, err := ocb.Generate(ps, 42)
					if err != nil {
						t.Fatal(err)
					}
					ss, err := New(sdb, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !ss.StreamResident() || es.StreamResident() {
						t.Fatalf("StreamResident: stream=%v eager=%v", ss.StreamResident(), es.StreamResident())
					}

					if ss.NumPages() != es.NumPages() {
						t.Fatalf("NumPages: stream=%d eager=%d", ss.NumPages(), es.NumPages())
					}
					for o := 0; o < p.NO; o++ {
						ef, esp := es.Pages(ocb.OID(o))
						sf, ssp := ss.Pages(ocb.OID(o))
						if ef != sf || esp != ssp {
							t.Fatalf("Pages(%d): stream=(%d,%d) eager=(%d,%d)", o, sf, ssp, ef, esp)
						}
						if es.PageOf(ocb.OID(o)) != ss.PageOf(ocb.OID(o)) {
							t.Fatalf("PageOf(%d) differs", o)
						}
					}
					for pg := -1; pg <= es.NumPages(); pg++ {
						want := fmt.Sprintf("%v", es.ObjectsOn(disk.PageID(pg)))
						got := fmt.Sprintf("%v", ss.ObjectsOn(disk.PageID(pg)))
						if got != want {
							t.Fatalf("ObjectsOn(%d): stream=%s eager=%s", pg, got, want)
						}
					}
					var ebuf, sbuf []disk.PageID
					for o := 0; o < p.NO; o++ {
						ebuf = es.ObjectRefPagesInto(ocb.OID(o), ebuf[:0])
						sbuf = ss.ObjectRefPagesInto(ocb.OID(o), sbuf[:0])
						if fmt.Sprintf("%v", ebuf) != fmt.Sprintf("%v", sbuf) {
							t.Fatalf("ObjectRefPages(%d): stream=%v eager=%v", o, sbuf, ebuf)
						}
					}
				})
			}
		}
	}
}

// TestStreamStoreReset pins that Reset re-targets a store across layouts in
// both directions, matching freshly built stores each time.
func TestStreamStoreReset(t *testing.T) {
	p := streamStoreParams()["base"]
	cfg := DefaultConfig()

	pe := p
	pe.Layout = ocb.LayoutEagerV2
	edb, err := ocb.Generate(pe, 7)
	if err != nil {
		t.Fatal(err)
	}
	ps := p
	ps.Layout = ocb.LayoutStream
	sdb, err := ocb.Generate(ps, 7)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(edb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset(sdb) // eager -> streaming
	fresh, err := New(sdb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < p.NO; o++ {
		if s.PageOf(ocb.OID(o)) != fresh.PageOf(ocb.OID(o)) {
			t.Fatalf("after eager->stream Reset, PageOf(%d) differs", o)
		}
	}
	s.Reset(edb) // streaming -> eager
	freshE, err := New(edb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPages() != freshE.NumPages() {
		t.Fatalf("after stream->eager Reset, NumPages %d != %d", s.NumPages(), freshE.NumPages())
	}
	for o := 0; o < p.NO; o++ {
		if s.PageOf(ocb.OID(o)) != freshE.PageOf(ocb.OID(o)) {
			t.Fatalf("after stream->eager Reset, PageOf(%d) differs", o)
		}
	}
}

// TestStreamReorganizePanics pins the defensive guard: reorganizing a
// streaming store is a programming error (core.NewRun rejects clustering
// configs on streaming bases before this could be reached).
func TestStreamReorganizePanics(t *testing.T) {
	p := streamStoreParams()["base"]
	p.Layout = ocb.LayoutStream
	db, err := ocb.Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Reorganize on a streaming store did not panic")
		}
	}()
	s.Reorganize([][]ocb.OID{{0, 1}})
}
