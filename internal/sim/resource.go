package sim

import "fmt"

// Resource is a passive resource in the sense of Table 1 of the paper: it
// performs no work of its own but is reserved and released by active
// resources. A Resource has an integer capacity (number of identical
// servers or tokens) and a FIFO queue of waiters.
//
// Resource gathers the classical queueing statistics (utilization, mean
// queue length, mean wait) as time-weighted integrals, which is how the
// kernel is validated against M/M/1 and M/M/c theory.
type Resource struct {
	sim      *Simulation
	name     string
	capacity int
	inUse    int
	queue    []waiter

	// statistics
	grants       uint64
	releases     uint64
	lastChange   Time
	busyIntegral float64 // ∫ inUse dt
	qIntegral    float64 // ∫ len(queue) dt
	waitTotal    float64 // total time spent waiting in queue
	statsSince   Time
}

type waiter struct {
	since Time
	grant func()
}

// NewResource creates a passive resource with the given capacity.
// It panics if capacity < 1.
func NewResource(s *Simulation, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q with capacity %d", name, capacity))
	}
	return &Resource{sim: s, name: name, capacity: capacity}
}

// Name returns the resource name given at construction.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of capacity tokens.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of tokens currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiters queued.
func (r *Resource) QueueLen() int { return len(r.queue) }

// Acquire asks for one capacity token for a holder that goes on with
// grant once it has the token. It reports true when a token was free: the
// token is taken and the caller runs grant itself, typically by going on
// in its own frame. Otherwise it queues grant and reports false, and a
// later Release grants the waiters in FIFO order through the kernel. The
// holder must call Release exactly once when done.
func (r *Resource) Acquire(grant func()) bool {
	if grant == nil {
		panic("sim: Resource.Acquire with nil grant")
	}
	r.accumulate()
	if r.inUse < r.capacity {
		r.inUse++
		r.grants++
		return true
	}
	r.queue = append(r.queue, waiter{since: r.sim.Now(), grant: grant})
	return false
}

// Release returns one token. If waiters are queued the head waiter is
// granted at the current simulated time (via a zero-delay event so the
// releaser finishes its own activity first). It panics if no token is held:
// an unbalanced release is a model bug.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	r.accumulate()
	r.releases++
	if len(r.queue) == 0 {
		r.inUse--
		return
	}
	// Hand the token directly to the head waiter; inUse stays constant.
	w := r.queue[0]
	copy(r.queue, r.queue[1:])
	r.queue = r.queue[:len(r.queue)-1]
	r.grants++
	r.waitTotal += r.sim.Now() - w.since
	r.sim.Schedule(0, w.grant)
}

// accumulate folds the elapsed interval into the time-weighted integrals.
func (r *Resource) accumulate() {
	now := r.sim.Now()
	dt := now - r.lastChange
	if dt > 0 {
		r.busyIntegral += dt * float64(r.inUse)
		r.qIntegral += dt * float64(len(r.queue))
	}
	r.lastChange = now
}

// Reset restores the resource to its freshly-constructed state — no tokens
// held, no waiters, zeroed statistics anchored at time zero — keeping the
// queue's backing array. It pairs with Simulation.Reset: a replication
// context resets its passive resources alongside the calendar.
func (r *Resource) Reset() {
	r.inUse = 0
	clear(r.queue) // drop grant closures so recycled slots hold no references
	r.queue = r.queue[:0]
	r.grants, r.releases = 0, 0
	r.busyIntegral, r.qIntegral, r.waitTotal = 0, 0, 0
	r.lastChange, r.statsSince = 0, 0
}

// ResetStats clears the gathered statistics (not the state) so that a
// warm-up period can be excluded from measurements.
func (r *Resource) ResetStats() {
	r.accumulate()
	r.grants, r.releases = 0, 0
	r.busyIntegral, r.qIntegral, r.waitTotal = 0, 0, 0
	r.statsSince = r.sim.Now()
}

// Utilization returns the mean fraction of capacity in use since the last
// ResetStats (or since creation): ∫inUse dt / (capacity · elapsed).
func (r *Resource) Utilization() float64 {
	r.accumulate()
	elapsed := r.sim.Now() - r.statsSince
	if elapsed <= 0 {
		return 0
	}
	return r.busyIntegral / (float64(r.capacity) * elapsed)
}

// MeanQueueLength returns the time-averaged number of waiters.
func (r *Resource) MeanQueueLength() float64 {
	r.accumulate()
	elapsed := r.sim.Now() - r.statsSince
	if elapsed <= 0 {
		return 0
	}
	return r.qIntegral / elapsed
}

// MeanWait returns the mean time a grant spent queued, over every grant
// (one served immediately waited zero).
func (r *Resource) MeanWait() float64 {
	if r.grants == 0 {
		return 0
	}
	return r.waitTotal / float64(r.grants)
}

// Grants returns the number of tokens granted since the last ResetStats.
func (r *Resource) Grants() uint64 { return r.grants }
