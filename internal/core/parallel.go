package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// resolveWorkers maps the user-facing Workers knob to an effective worker
// count: ≤ 0 means "all available cores", and there is never a point in
// running more workers than replications.
func resolveWorkers(workers, reps int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > reps {
		workers = reps
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// PanicError is a replication panic converted into an error: the failing
// replication index, the recovered value, and the goroutine stack at the
// panic site. The replication engine recovers every panic a replication
// body raises — a panicking replication must fail its own experiment, not
// tear down a whole campaign — and the worker's replication context is
// discarded rather than returned to the pool, so a panic mid-mutation can
// never poison state a later experiment would reuse.
type PanicError struct {
	Rep   int
	Value interface{}
	Stack []byte
}

// Error renders the panic value; the stack is carried separately so cell
// error reports can include it without multi-line Error() strings.
func (p *PanicError) Error() string {
	return fmt.Sprintf("core: replication %d panicked: %v", p.Rep, p.Value)
}

// safeRep runs body(ctx, rep), converting a panic into a *PanicError.
func safeRep[T any](c *repContext, rep int, body func(ctx *repContext, rep int) (T, error)) (row T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Rep: rep, Value: r, Stack: debug.Stack()}
		}
	}()
	return body(c, rep)
}

// runReplications executes body(ctx, rep) for every replication index in
// [0, reps) on up to workers goroutines and returns the per-replication
// rows indexed by replication number. Each worker owns one long-lived
// repContext, taken from pool (which may be nil for per-call contexts):
// the first replication a worker runs builds the model, database, and
// workload buffers, and every later replication resets them in place.
//
// Replications are embarrassingly parallel by construction — each derives
// its own random streams from its replication index and resets its
// context's model to a pristine state — so the only sources of
// nondeterminism a parallel engine could introduce are aggregation order
// and error selection. Aggregation is pinned: rows land in a preallocated
// slice at their replication index and the caller folds them in index
// order, so successful results are bit-identical for any worker count,
// with or without a shared pool. Error paths abort early (remaining
// replications are not started once one fails or ctx is cancelled), and
// the lowest recorded replication index's error is reported; which later
// replications were already in flight when the first failure landed may
// vary, but no result is produced on any error path, so determinism of
// results is unaffected.
//
// Robustness contract: a body panic is recovered into a *PanicError
// instead of crashing the process, and any context whose body returned an
// error or panicked is dropped on the floor rather than put back in the
// pool — its model may be mid-mutation (a halted simulation, a
// half-applied reorganization), and the pool's invariant is that every
// pooled context resets to a pristine state. ctx cancellation is observed
// at replication boundaries only (zero cost inside the simulation hot
// loop); bodies additionally install the kernel's coarse stop check so a
// cancelled cell does not have to finish a multi-second replication first.
func runReplications[T any](ctx context.Context, reps, workers int, pool *ContextPool, body func(ctx *repContext, rep int) (T, error)) ([]T, error) {
	rows := make([]T, reps)
	workers = resolveWorkers(workers, reps)
	errs := make([]error, reps)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			c := pool.get()
			healthy := true
			defer func() {
				if healthy {
					pool.put(c)
				}
			}()
			for {
				rep := int(next.Add(1)) - 1
				if rep >= reps || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[rep] = err
					failed.Store(true)
					return
				}
				var err error
				rows[rep], err = safeRep(c, rep, body)
				if err != nil {
					errs[rep] = err
					failed.Store(true)
					healthy = false // model state is suspect; drop the context
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
