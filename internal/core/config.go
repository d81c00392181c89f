// Package core implements the VOODB evaluation model — the paper's primary
// contribution (§3). It wires the active resources of the knowledge model
// (Figure 4): Users generate transactions, the Transaction Manager admits
// them under the multiprogramming level and acquires locks, the Object
// Manager maps objects to pages, the Buffering Manager caches pages under a
// replacement policy, the I/O Subsystem performs physical accesses with the
// Figure 5 contiguity rule, and the Clustering Manager observes accesses
// and reorganizes the base. The passive resources of Table 1 (server CPUs,
// client CPU, disk controller, database admission) are sim.Resources.
//
// The model is parameterized exactly along Table 3 and supports the four
// Client-Server system classes; Table 4's O₂ and Texas instantiations live
// in internal/systems.
package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/ocb"
	"repro/internal/storage"
)

// SystemClass selects the architecture (Table 3 SYSCLASS).
type SystemClass uint8

const (
	// Centralized runs everything on one node (Texas's configuration).
	Centralized SystemClass = iota
	// ObjectServer ships individual objects from server to client.
	ObjectServer
	// PageServer ships whole pages (O₂'s configuration).
	PageServer
	// DBServer executes transactions wholly on the server and ships only
	// results.
	DBServer
)

// String returns the Table 3 name of the class.
func (s SystemClass) String() string {
	switch s {
	case Centralized:
		return "Centralized"
	case ObjectServer:
		return "Object Server"
	case PageServer:
		return "Page Server"
	case DBServer:
		return "DB Server"
	default:
		return fmt.Sprintf("SystemClass(%d)", s)
	}
}

// ClusteringKind selects the Clustering Manager module (Table 3 CLUSTP).
type ClusteringKind uint8

const (
	// NoClustering disables the Clustering Manager (default).
	NoClustering ClusteringKind = iota
	// DSTC enables the Bullat–Schneider dynamic clustering technique.
	DSTC
	// GreedyGraph enables the greedy graph baseline.
	GreedyGraph
)

// String returns the module name.
func (c ClusteringKind) String() string {
	switch c {
	case NoClustering:
		return "None"
	case DSTC:
		return "DSTC"
	case GreedyGraph:
		return "GreedyGraph"
	default:
		return fmt.Sprintf("ClusteringKind(%d)", c)
	}
}

// PrefetchKind selects the prefetching policy (Table 3 PREFETCH). The paper
// ships only "None" and names prefetching as future work; OneAhead is our
// simple extension, which the prefetch sweep axis studies.
type PrefetchKind uint8

const (
	// NoPrefetch performs no prefetching (default).
	NoPrefetch PrefetchKind = iota
	// OneAhead also fetches page p+1 on a miss of page p.
	OneAhead
)

// String returns the policy name.
func (p PrefetchKind) String() string {
	switch p {
	case NoPrefetch:
		return "None"
	case OneAhead:
		return "OneAhead"
	default:
		return fmt.Sprintf("PrefetchKind(%d)", p)
	}
}

// Config is the Table 3 parameter set plus the system-emulation switches
// described in DESIGN.md. Field comments note the Table 3 code and default.
type Config struct {
	// System is SYSCLASS (default Page Server).
	System SystemClass
	// NetThroughputMBps is NETTHRU in MB/s (default 1; +Inf = free).
	NetThroughputMBps float64
	// NetLatencyMs is a fixed per-message latency (ours; default 0).
	NetLatencyMs float64

	// PageSize is PGSIZE in bytes (default 4096).
	PageSize int
	// BufferPages is BUFFSIZE in pages (default 500).
	BufferPages int
	// BufferPolicy is PGREP (default "LRU", the paper's LRU-1).
	BufferPolicy string
	// Prefetch is PREFETCH (default None).
	Prefetch PrefetchKind

	// Clustering is CLUSTP (default None).
	Clustering ClusteringKind
	// DSTCParams tunes the DSTC module when selected.
	DSTCParams cluster.DSTCParams
	// Placement is INITPL (default Optimized Sequential).
	Placement storage.Placement

	// DiskSeekMs, DiskLatencyMs, DiskTransferMs are DISKSEA/DISKLAT/
	// DISKTRA (defaults 7.4/4.3/0.5 ms).
	DiskSeekMs     float64
	DiskLatencyMs  float64
	DiskTransferMs float64

	// MPL is MULTILVL, the multiprogramming level (default 10).
	MPL int
	// GetLockMs and RelLockMs are GETLOCK/RELLOCK (defaults 0.5/0.5 ms).
	GetLockMs float64
	RelLockMs float64

	// Users is NUSERS (default 1).
	Users int
	// ThinkTimeMs is the per-user pause between transactions (default 0).
	ThinkTimeMs float64

	// ServerCPUs is the number of server processors (passive resource of
	// Table 1; O₂ ran on a biprocessor).
	ServerCPUs int
	// ObjectCPUMs is the processing cost per object access (ours).
	ObjectCPUMs float64

	// StorageOverhead inflates object footprints (see storage.Config).
	StorageOverhead float64
	// PhysicalOIDs marks Texas-style stores (reorganization pays the
	// reference-fixup scan of Table 6).
	PhysicalOIDs bool
	// ReserveOnLoad emulates Texas's virtual-memory mapping: faulting a
	// page reserves frames for every page it references.
	ReserveOnLoad bool
	// ReserveCold inserts reserved frames at the eviction end of the
	// replacement order (never-touched pages are the OS's first reclaim
	// candidates) instead of the hot end. Texas uses cold insertion.
	ReserveCold bool
	// SwizzleDirty emulates pointer swizzling at fault time: every loaded
	// page is dirty and must be swapped out on eviction.
	SwizzleDirty bool

	// Failures injects random system failures (the §5 extension module).
	Failures FailureParams
}

// DefaultConfig returns the Table 3 default column.
func DefaultConfig() Config {
	return Config{
		System:            PageServer,
		NetThroughputMBps: 1,
		PageSize:          4096,
		BufferPages:       500,
		BufferPolicy:      "LRU",
		Prefetch:          NoPrefetch,
		Clustering:        NoClustering,
		DSTCParams:        cluster.DefaultDSTCParams(),
		Placement:         storage.OptimizedSequential,
		DiskSeekMs:        7.4,
		DiskLatencyMs:     4.3,
		DiskTransferMs:    0.5,
		MPL:               10,
		GetLockMs:         0.5,
		RelLockMs:         0.5,
		Users:             1,
		ServerCPUs:        1,
		ObjectCPUMs:       0.02,
		StorageOverhead:   1.0,
	}
}

// validTime reports whether x is a usable duration: finite and ≥ 0. NaN
// fails the comparison, so it is rejected too.
func validTime(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Validate checks the configuration. Float checks are written as
// !(x >= 0) rather than x < 0 so that NaN, for which every comparison is
// false, is rejected too. Times must also be finite; only the network
// throughput may be +Inf, which models a free network.
func (c Config) Validate() error {
	switch {
	case c.System > DBServer:
		return fmt.Errorf("core: unknown system class %d", c.System)
	case !(c.NetThroughputMBps > 0):
		return fmt.Errorf("core: NetThroughputMBps = %v (use +Inf for a free network)", c.NetThroughputMBps)
	case !validTime(c.NetLatencyMs):
		return fmt.Errorf("core: NetLatencyMs = %v", c.NetLatencyMs)
	case c.PageSize < 64:
		return fmt.Errorf("core: PageSize = %d", c.PageSize)
	case c.BufferPages < 1:
		return fmt.Errorf("core: BufferPages = %d", c.BufferPages)
	case c.BufferPolicy == "":
		return fmt.Errorf("core: empty BufferPolicy")
	case !validTime(c.DiskSeekMs) || !validTime(c.DiskLatencyMs) || !validTime(c.DiskTransferMs):
		return fmt.Errorf("core: disk times seek=%v latency=%v transfer=%v", c.DiskSeekMs, c.DiskLatencyMs, c.DiskTransferMs)
	case c.MPL < 1:
		return fmt.Errorf("core: MPL = %d", c.MPL)
	case !validTime(c.GetLockMs) || !validTime(c.RelLockMs):
		return fmt.Errorf("core: lock times get=%v release=%v", c.GetLockMs, c.RelLockMs)
	case c.Users < 1:
		return fmt.Errorf("core: Users = %d", c.Users)
	case !validTime(c.ThinkTimeMs):
		return fmt.Errorf("core: ThinkTimeMs = %v", c.ThinkTimeMs)
	case c.ServerCPUs < 1:
		return fmt.Errorf("core: ServerCPUs = %d", c.ServerCPUs)
	case !validTime(c.ObjectCPUMs):
		return fmt.Errorf("core: ObjectCPUMs = %v", c.ObjectCPUMs)
	case !(c.StorageOverhead >= 1):
		return fmt.Errorf("core: StorageOverhead = %v", c.StorageOverhead)
	}
	if c.Clustering > GreedyGraph {
		return fmt.Errorf("core: unknown clustering kind %d", c.Clustering)
	}
	// The DSTC tuning is checked under every policy, so a value nothing
	// reads yet (a negative trigger with clustering off) is refused too.
	if err := c.DSTCParams.Validate(); err != nil {
		return err
	}
	return c.Failures.Validate()
}

// ValidateRun reports whether cfg can run on an object base generated
// from p: both must validate, and clustering needs an eager base (a
// streaming base has no per-object directory for a reorganization to
// rewrite). It is the one runnability check, before any run and in NewRun.
func ValidateRun(cfg Config, p ocb.Params) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Layout == ocb.LayoutStream && cfg.Clustering != NoClustering {
		return fmt.Errorf("core: clustering (%v) requires an eager object base, got streaming layout", cfg.Clustering)
	}
	return nil
}
