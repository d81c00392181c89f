package core

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// FailureParams injects the "random hazards" the paper's conclusion names
// as a VOODB extension module (§5): benign system failures striking at
// exponential intervals. A failure wipes the buffer (a restart loses the
// cache) and holds the disk for the repair duration, so in-flight
// transactions stall and subsequent ones re-read their working sets.
type FailureParams struct {
	// Enabled switches the module on.
	Enabled bool
	// MTBFMs is the mean (simulated) time between failures in ms,
	// exponentially distributed.
	MTBFMs float64
	// MeanRepairMs is the mean repair time in ms, exponentially
	// distributed.
	MeanRepairMs float64
}

// Validate checks the parameters: both times are finite and ≥ 0, an
// enabled module needs a positive MTBF, and a disabled one no repair time
// (without failures there is nothing to repair).
func (f FailureParams) Validate() error {
	if !validTime(f.MTBFMs) || !validTime(f.MeanRepairMs) || (f.Enabled && f.MTBFMs == 0) {
		return fmt.Errorf("core: failure params MTBF=%v repair=%v", f.MTBFMs, f.MeanRepairMs)
	}
	if !f.Enabled && f.MeanRepairMs != 0 {
		return fmt.Errorf("core: failure repair time %v needs failures enabled (a positive MTBF)", f.MeanRepairMs)
	}
	return nil
}

// FailureStats reports what the hazard module did during a run.
type FailureStats struct {
	Failures     uint64
	DowntimeMs   float64
	PagesDropped uint64
}

// failureInjector schedules hazards while a batch is active.
type failureInjector struct {
	r      *Run
	params FailureParams
	src    *rng.Source

	// workRemaining reports whether the current batch still has work; a
	// hazard striking an idle system is ignored, and none is re-armed, so
	// the event calendar can drain.
	workRemaining func() bool

	pending sim.Event
	stats   FailureStats
}

func newFailureInjector(r *Run, params FailureParams, src *rng.Source) *failureInjector {
	return &failureInjector{r: r, params: params, src: src}
}

// arm schedules the next hazard.
func (f *failureInjector) arm() {
	if !f.params.Enabled {
		return
	}
	delay := f.src.Exp(f.params.MTBFMs)
	f.pending = f.r.sim.Schedule(delay, f.strike)
}

// disarm cancels any pending hazard (end of batch). Cancelling a stale or
// zero handle is a kernel no-op, so no liveness check is needed.
func (f *failureInjector) disarm() {
	f.r.sim.Cancel(f.pending)
	f.pending = sim.Event{}
}

// strike is one failure: the buffer content is lost and the disk is held
// for the repair duration, stalling every queued I/O behind the recovery.
func (f *failureInjector) strike() {
	f.pending = sim.Event{}
	if f.workRemaining == nil || !f.workRemaining() {
		return
	}
	f.stats.Failures++
	dropped := f.r.buf.Len()
	f.r.buf.InvalidateAll()
	f.r.dsk.ResetHead()
	f.stats.PagesDropped += uint64(dropped)
	// Validate accepts a zero mean repair time: the failure then costs the
	// cache but no downtime. Exp rejects a zero mean, so draw only for a
	// positive one.
	var repair float64
	if f.params.MeanRepairMs > 0 {
		repair = f.src.Exp(f.params.MeanRepairMs)
	}
	f.stats.DowntimeMs += repair
	f.r.use(f.r.diskRes, func() float64 { return repair }, func() {
		if f.workRemaining() {
			f.arm()
		}
	})
}

// FailureStats returns the hazard statistics accumulated so far.
func (r *Run) FailureStats() FailureStats {
	if r.failures == nil {
		return FailureStats{}
	}
	return r.failures.stats
}
