package sim

import (
	"fmt"
	"time"
)

// Watchdog bounds a Run/RunUntil call so a pathological model — an
// unbounded retry loop under 100% injected loss, a callback that
// reschedules itself at the current instant — fails loudly with a
// diagnostic error instead of spinning forever. The zero value disables
// every check; MaxEvents and MaxNoProgress are deterministic (they count
// fired events), MaxWall is a real-time safety net for interactive use.
type Watchdog struct {
	// MaxEvents aborts the run after this many events have fired since the
	// watchdog was armed. 0 disables the check.
	MaxEvents uint64
	// MaxNoProgress aborts the run when this many consecutive events fire
	// without the simulated clock advancing (a zero-delay livelock).
	// 0 disables the check.
	MaxNoProgress uint64
	// MaxWall aborts the run when this much real time has elapsed since
	// the watchdog was armed. Checked every 1024 events to stay off the
	// hot path. 0 disables the check.
	MaxWall time.Duration
}

// WatchdogError is the diagnostic a tripped watchdog records: which bound
// tripped and where the simulation stood.
type WatchdogError struct {
	Reason  string
	Now     Time   // simulated clock at the abort
	Fired   uint64 // events fired since the watchdog was armed
	Pending int    // events still scheduled
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog: %s (t=%v, %d events fired, %d pending)",
		e.Reason, e.Now, e.Fired, e.Pending)
}

// SetWatchdog arms (or, with a zero Watchdog, disarms) the watchdog. The
// event and wall budgets count from this call; any previous watchdog error
// is cleared.
func (e *Engine) SetWatchdog(w Watchdog) {
	e.wd = w
	e.wdOn = w != Watchdog{}
	e.wdBaseFired = e.fired
	// run calls wdCheck per event only for MaxNoProgress or MaxWall.
	e.wdSlow = w.MaxNoProgress > 0 || w.MaxWall > 0
	e.wdMaxFired = w.MaxEvents - 1 // wraps to "never" when MaxEvents is 0
	e.wdSameTime = 0
	e.wdLastNow = e.now
	e.wdErr = nil
	if w.MaxWall > 0 {
		e.wdStart = time.Now()
	}
}

// Err returns the diagnostic of a tripped watchdog, or nil. It is reset by
// the next SetWatchdog call.
func (e *Engine) Err() error {
	if e.wdErr == nil {
		return nil // avoid a non-nil interface holding a nil *WatchdogError
	}
	return e.wdErr
}

// wdCheck enforces the armed bounds before the next event fires. It
// reports false — after recording the diagnostic and stopping the engine —
// when a bound tripped.
func (e *Engine) wdCheck() bool {
	fired := e.fired - e.wdBaseFired
	fail := func(reason string) bool {
		e.wdErr = &WatchdogError{Reason: reason, Now: e.now, Fired: fired, Pending: e.live}
		e.stopped = true
		return false
	}
	if e.wd.MaxEvents > 0 && fired >= e.wd.MaxEvents {
		return fail(fmt.Sprintf("event budget of %d exhausted", e.wd.MaxEvents))
	}
	if e.wd.MaxNoProgress > 0 {
		if e.now == e.wdLastNow {
			e.wdSameTime++
			if e.wdSameTime >= e.wd.MaxNoProgress {
				return fail(fmt.Sprintf("no progress: %d consecutive events at the same instant", e.wdSameTime))
			}
		} else {
			e.wdLastNow = e.now
			e.wdSameTime = 0
		}
	}
	if e.wd.MaxWall > 0 && fired&1023 == 0 {
		if elapsed := time.Since(e.wdStart); elapsed > e.wd.MaxWall {
			return fail(fmt.Sprintf("wall-clock budget %v exceeded (%v elapsed)", e.wd.MaxWall, elapsed.Round(time.Millisecond)))
		}
	}
	return true
}
