package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/ocb"
)

// traceDigest replays a long pseudo-random access trace on p and hashes
// everything the trace observes: every ShouldTrigger answer (asked after
// each transaction) and every cluster list BuildClusters returns. Accesses
// follow a fixed neighbour graph over a few thousand OIDs, so links
// repeat, both directions of a link occur, and objects are re-read in
// place (self-transitions). Two policies that build the same clusters and
// trigger at the same moments hash the same.
func traceDigest(p Policy) string {
	const (
		accesses = 150_000
		oids     = 3000
		hot      = 400
		buildGap = 1700 // transactions between builds
	)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}

	state := uint64(0xc1a5)
	next := func() uint64 {
		// splitmix64: a fixed local stream, so the digests depend on the
		// policy alone.
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	// neighbour returns the k-th fixed successor of o.
	neighbour := func(o ocb.OID, k uint64) ocb.OID {
		return ocb.OID((uint64(o)*2654435761 + k*40503 + 17) % oids)
	}
	build := func() {
		clusters := p.BuildClusters()
		put(uint64(len(clusters)))
		for _, c := range clusters {
			put(uint64(len(c)))
			for _, o := range c {
				put(uint64(o))
			}
		}
	}

	tx := 0
	for n := 0; n < accesses; tx++ {
		prev := ocb.NilRef
		length := 1 + int(next()%24)
		for i := 0; i < length; i++ {
			r := next()
			var o ocb.OID
			switch {
			case prev != ocb.NilRef && r%16 == 0:
				o = prev // re-read in place
			case prev != ocb.NilRef && r%16 < 12:
				o = neighbour(prev, (r>>8)%3)
			case (r>>20)%4 != 0:
				o = ocb.OID((r >> 24) % hot)
			default:
				o = ocb.OID((r >> 24) % oids)
			}
			p.Observe(o, prev, (r>>40)%8 == 0)
			prev = o
			n++
		}
		p.EndTransaction()
		if p.ShouldTrigger() {
			put(1)
		} else {
			put(0)
		}
		switch {
		case tx%buildGap == buildGap-1:
			build()
		case tx%5003 == 5002:
			p.Reset() // drop the statistics without building
			put(2)
		}
	}
	build()
	build() // an immediate rebuild sees no statistics
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDSTCTraceDigests pins DSTC's clusters and trigger answers on one long
// trace under several tunings. Any change to DSTC's data structures must
// leave these digests alone.
func TestDSTCTraceDigests(t *testing.T) {
	cases := []struct {
		p    DSTCParams
		want string
	}{
		{DSTCParams{ObservationPeriod: 1, MinUsage: 1, MinLink: 1, MaxClusterSize: 2}, "aa37347f69d99288"},
		{DefaultDSTCParams(), "1c269fa630c4ba1f"},
		{DSTCParams{ObservationPeriod: 7, MinUsage: 3, MinLink: 2, MaxClusterSize: 8, TriggerCandidates: 700}, "74ff785bb3a9e0f5"},
		{DSTCParams{ObservationPeriod: 100, MinUsage: 1, MinLink: 3, MaxClusterSize: 32, TriggerCandidates: 1800}, "d3c272895645d7c8"},
		{DSTCParams{ObservationPeriod: 1, MinUsage: 2, MinLink: 2, MaxClusterSize: 32, TriggerCandidates: 1}, "4fe774c6ab89b5ac"},
	}
	for _, c := range cases {
		d := NewDSTC(c.p)
		if got := traceDigest(d); got != c.want {
			t.Errorf("%+v: digest %s, want %s", c.p, got, c.want)
		}
		// Reset must restore the fresh policy: a replay hashes the same.
		d.Reset()
		if got := traceDigest(d); got != c.want {
			t.Errorf("%+v after Reset: digest %s, want %s", c.p, got, c.want)
		}
	}
}

// TestGreedyGraphTraceDigests pins GreedyGraph's clusters on the same trace.
func TestGreedyGraphTraceDigests(t *testing.T) {
	cases := []struct {
		minLink, maxSize int
		want             string
	}{
		{1, 3, "e26c40bcf3883f75"},
		{1, 32, "6150d64b65151b09"},
		{2, 3, "a80d7917b0c0a367"},
		{2, 32, "d8cbd31142e399db"},
	}
	for _, c := range cases {
		g := NewGreedyGraph(c.minLink, c.maxSize)
		if got := traceDigest(g); got != c.want {
			t.Errorf("minLink %d maxSize %d: digest %s, want %s", c.minLink, c.maxSize, got, c.want)
		}
		g.Reset()
		if got := traceDigest(g); got != c.want {
			t.Errorf("minLink %d maxSize %d after Reset: digest %s, want %s", c.minLink, c.maxSize, got, c.want)
		}
	}
}
