package core

import (
	"fmt"

	"repro/internal/rng"
)

// FailureParams injects the "random hazards" the paper's conclusion names
// as a VOODB extension module (§5): benign system failures after
// exponential up-times. A failure wipes the buffer at the moment it
// strikes (a restart loses the cache); its repair then holds the disk
// behind the I/O already queued there, so in-flight transactions stall and
// subsequent ones re-read their working sets. The next failure is drawn
// only when the repair ends, so failures never overlap.
type FailureParams struct {
	// Enabled switches the module on.
	Enabled bool
	// MTBFMs is the mean (simulated) up-time in ms before a failure
	// strikes, exponentially distributed, counted from the start of the
	// batch or the end of the previous repair. It is not the mean interval
	// between strikes, which adds each repair and its wait for the disk.
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
	src    rng.Source

	// workRemaining reports whether the current batch still has work; a
	// hazard striking an idle system is ignored, and none is re-armed, so
	// the event calendar can drain.
	workRemaining func() bool

	strikeFn func() // strike, bound once so arming allocates nothing
	stats    FailureStats
}

// newFailureInjector returns r's injector, its hazards drawn from the
// stream of seed.
func newFailureInjector(r *Run, params FailureParams, seed uint64) *failureInjector {
	f := &failureInjector{r: r, params: params}
	f.strikeFn = f.strike
	f.reset(seed)
	return f
}

// reset restores the injector in place to the state newFailureInjector
// gives it for seed: its stream re-seeded and no statistics. A hazard
// still pending goes with the calendar, which Run.Reset resets alongside.
func (f *failureInjector) reset(seed uint64) {
	f.src.Reinit(seed)
	f.workRemaining = nil
	f.stats = FailureStats{}
}

// arm schedules the next hazard.
func (f *failureInjector) arm() {
	if !f.params.Enabled {
		return
	}
	f.r.sim.Schedule(f.src.Exp(f.params.MTBFMs), f.strikeFn)
}

// strike is one failure: the buffer content is lost at once, and the
// repair holds the disk once the I/O already queued there is done,
// stalling every later I/O behind it. Its executor's final state arms the
// next failure.
func (f *failureInjector) strike() {
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
	e := f.r.getExec()
	e.hold = repair
	e.io = append(e.io[:0], mkIO(ioHold, 0))
	e.ioIdx, e.ioNext, e.state = 0, stRepairDone, stIO
	e.step(false)
}

// FailureStats returns the hazard statistics accumulated so far.
func (r *Run) FailureStats() FailureStats {
	if r.failures == nil {
		return FailureStats{}
	}
	return r.failures.stats
}
