// Package sim provides the discrete-event simulation kernel that every
// architectural model in this repository runs on.
//
// The kernel is deliberately small: a picosecond-resolution clock, a queue
// of pending events, and deterministic tie-breaking (events scheduled for
// the same instant fire in the order they were scheduled). Determinism
// matters because the experiments in internal/experiments assert quantitative
// relationships between runs; two simulations built from the same seed must
// produce identical event interleavings.
//
// Event storage is an intrusive slot arena with a free list: event structs
// live in one slice and EventIDs carry a per-slot generation, so a stale ID
// can never cancel the slot's next occupant. The pending events form a
// monotone radix queue threaded through the arena: bucket b is a
// doubly-linked list of the events whose instant first differs from the
// queue's base (a lower bound of every pending instant) in bit b-1, and
// bucket 0 holds the events at the base itself. A one-word mask finds the
// lowest non-empty bucket; popping from an empty bucket 0 rebases on that
// bucket's earliest instant and spreads its events into lower buckets. An
// event therefore moves down at most 63 times however deep the queue is,
// and same-instant events stay in schedule order because every list is
// appended in schedule order and emptied into empty buckets. Cancel
// unlinks its event and frees the slot at once. Scheduling, firing and
// cancelling cost no per-event heap pointer, no map operation and no sift
// through a deep heap: on a 2-vCPU Xeon VM (go1.24) BenchmarkEngineHold
// measures ~55/73/75ns per event at depths 16/512/4096, against
// ~88/178/264ns for the binary heap of slot indices this queue replaced.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a simulated instant or duration in integer picoseconds.
//
// Picoseconds keep DDR timing exact: a DDR4-2400 clock period is 833ps,
// which a nanosecond clock could not represent without rounding drift.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable instant; used as "never".
const MaxTime Time = math.MaxInt64

// Nanoseconds returns t as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a float64 microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t to a time.Duration, truncating toward zero to whole
// nanoseconds (a Duration cannot hold the picoseconds).
func (t Time) Duration() time.Duration { return time.Duration(int64(t) / int64(Nanosecond)) }

// String renders the time with an adaptive unit, e.g. "1.234us". A negative
// time renders with the same adaptive unit and a leading sign.
func (t Time) String() string {
	switch {
	case t == math.MinInt64:
		// -t would overflow; the only value that cannot reuse the
		// positive path renders in raw picoseconds.
		return fmt.Sprintf("%dps", int64(t))
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromNanos converts a float64 nanosecond count to a Time, rounding to the
// nearest picosecond.
func FromNanos(ns float64) Time { return Time(math.Round(ns * float64(Nanosecond))) }

// FromDuration converts a time.Duration to a Time exactly: a Duration is an
// integer nanosecond count and Time is integer picoseconds, so the
// conversion is a multiplication by 1000, not a truncation. Durations whose
// picosecond count does not fit in int64 (beyond roughly ±106 days)
// saturate to ±MaxTime instead of overflowing.
func FromDuration(d time.Duration) Time {
	const maxNs = int64(MaxTime) / int64(Nanosecond)
	ns := d.Nanoseconds()
	if ns > maxNs {
		return MaxTime
	}
	if ns < -maxNs {
		return -MaxTime
	}
	return Time(ns) * Nanosecond
}

// event is one arena slot. A slot is pending while fn != nil; next and
// prev link it into its radix bucket (-1 ends a list). gen advances every
// time the slot is released, invalidating all previously minted EventIDs
// for it.
type event struct {
	when       Time
	fn         func()
	gen        uint32
	next, prev int32
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is never issued. Internally it packs (slot+1, generation).
type EventID uint64

func makeID(slot int32, gen uint32) EventID {
	return EventID(uint64(slot)+1)<<32 | EventID(gen)
}

// Engine is a single-threaded discrete-event simulator.
//
// Engines are not safe for concurrent use; all model components attached to
// an Engine must schedule and run on the same goroutine. (Independent
// engines on independent goroutines are fine — that is how the parallel
// experiment runner fans out.)
type Engine struct {
	now    Time
	events []event // slot arena; grows, never shrinks
	free   []int32 // released slots available for reuse

	// Radix queue (see the package comment). base <= now always, so a
	// newly scheduled instant is never below it; head/tail are valid for
	// the buckets whose mask bit is set.
	base    Time
	mask    uint64
	buckets [64]bucket

	live    int // scheduled and not cancelled
	fired   uint64
	stopped bool
	limit   Time // the running Run/RunUntil call's deadline; -1 outside one

	// Watchdog state (see watchdog.go). wdOn keeps the hot path to a
	// single branch when no watchdog is armed.
	wd          Watchdog
	wdOn        bool
	wdSlow      bool   // MaxNoProgress or MaxWall is set
	wdMaxFired  uint64 // MaxEvents-1: past it, run calls wdCheck
	wdErr       *WatchdogError
	wdBaseFired uint64
	wdSameTime  uint64
	wdLastNow   Time
	wdStart     time.Time

	// Probe state (see probe.go). probeOn keeps the hot path to a single
	// branch when no probe is attached, exactly like wdOn.
	probe   Probe
	probeOn bool
}

// bucket is one radix bucket's list ends, valid while its mask bit is set,
// and the earliest instant linked into it since it was last empty, a lower
// bound of its events (exact unless that event was cancelled).
type bucket struct {
	head, tail int32
	low        Time
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{limit: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled and not cancelled.
func (e *Engine) Pending() int { return e.live }

// Schedule runs fn after delay. A delay that would carry the instant past
// MaxTime saturates there ("never"); a negative delay is an error in the
// caller and panics because it would corrupt causality.
func (e *Engine) Schedule(delay Time, fn func()) EventID {
	when := e.now + delay
	if when&^delay < 0 { // when < 0 <= delay: the sum overflowed
		when = MaxTime
	}
	return e.At(when, fn)
}

// At runs fn at the absolute instant when. Scheduling in the past panics.
func (e *Engine) At(when Time, fn func()) EventID {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, delay %v, before now %v", when, when-e.now, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.events = append(e.events, event{})
		slot = int32(len(e.events) - 1)
	}
	ev := &e.events[slot]
	ev.when = when
	ev.fn = fn
	e.link(ev, slot)
	e.live++
	if e.probeOn {
		e.probe.OnSchedule(when)
	}
	return makeID(slot, ev.gen)
}

// Cancel removes a pending event and frees its slot. Cancelling an event
// that already fired or was already cancelled is a no-op returning false.
func (e *Engine) Cancel(id EventID) bool {
	slot := int64(id>>32) - 1
	if slot < 0 || slot >= int64(len(e.events)) {
		return false
	}
	ev := &e.events[slot]
	if ev.gen != uint32(id) || ev.fn == nil {
		return false
	}
	e.unlink(int32(slot))
	e.release(int32(slot))
	e.live--
	if e.probeOn {
		e.probe.OnCancel(e.now)
	}
	return true
}

// Advance lets an event handler, as its last act, do the work of an event
// at when inline instead of scheduling it. It is AdvanceN's one-event
// case.
func (e *Engine) Advance(when Time) bool { return e.AdvanceN(when, 1) }

// AdvanceN lets an event handler, as its last act, do inline the work of
// n events that would fire in a row, the last at when, instead of
// scheduling them. It succeeds only if those events would fire next:
// nothing pending is due by when, when is within the running
// Run/RunUntil deadline, Stop was not called and no watchdog is armed.
// It then moves the clock to when and counts n fired events. A probe
// would see each of the n events, but the engine knows only the last
// one's instant, so with a probe attached AdvanceN refuses for n > 1; for
// n == 1 it gives the probe the OnSchedule/OnFire pair, with the same
// Pending(), that the event would. When it refuses, the caller schedules.
func (e *Engine) AdvanceN(when Time, n uint64) bool {
	if when < e.now || when > e.limit || e.stopped || e.wdOn || n > 1 && e.probeOn {
		return false
	}
	// Bucket 0 holds events at base <= now; the lowest other non-empty
	// bucket's lower bound is at or below every pending instant.
	if e.mask&1 != 0 || e.mask != 0 && e.buckets[bits.TrailingZeros64(e.mask)].low <= when {
		return false
	}
	e.now = when
	e.fired += n
	if e.probeOn {
		e.live++
		e.probe.OnSchedule(when)
		e.live--
		e.probe.OnFire(when)
	}
	return true
}

// Stop makes the current Run/RunUntil call return after the in-flight event
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// release returns an unlinked slot to the free list, bumping its generation
// so outstanding EventIDs for the old occupant can never touch the new one.
func (e *Engine) release(slot int32) {
	ev := &e.events[slot]
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, slot)
}

// link appends ev, the event in slot, to the tail of its bucket.
func (e *Engine) link(ev *event, slot int32) {
	// Instants are non-negative, so the key is at most 63; the mask only
	// drops the bounds check.
	b := bits.Len64(uint64(ev.when^e.base)) & 63
	q := &e.buckets[b]
	ev.next, ev.prev = -1, q.tail
	if e.mask&(1<<b) == 0 {
		e.mask |= 1 << b
		q.head, q.low, ev.prev = slot, ev.when, -1
	} else {
		q.low = min(q.low, ev.when)
		e.events[q.tail].next = slot
	}
	q.tail = slot
}

// unlink removes slot from its bucket.
func (e *Engine) unlink(slot int32) {
	ev := &e.events[slot]
	b := bits.Len64(uint64(ev.when^e.base)) & 63
	q := &e.buckets[b]
	if ev.prev < 0 && ev.next < 0 {
		e.mask &^= 1 << b
		return
	}
	if ev.prev < 0 {
		q.head = ev.next
	} else {
		e.events[ev.prev].next = ev.next
	}
	if ev.next < 0 {
		q.tail = ev.prev
	} else {
		e.events[ev.next].prev = ev.prev
	}
}

// step fires the earliest pending event if it is due by limit and
// reports whether it did. While bucket 0 is empty it rebases on the
// lowest non-empty bucket's lower bound and spreads that bucket's events
// into lower buckets, but only if the bound is due by limit, so a RunUntil
// look-ahead never leaves base above the clock.
func (e *Engine) step(limit Time) bool {
	for e.mask&1 == 0 {
		if e.mask == 0 {
			return false
		}
		b := bits.TrailingZeros64(e.mask)
		q := &e.buckets[b]
		if q.low > limit {
			return false
		}
		if s := q.head; s == q.tail && e.events[s].when <= limit {
			// A lone event moves straight to bucket 0.
			e.base = e.events[s].when
			e.mask ^= 1<<b | 1
			e.buckets[0] = bucket{head: s, tail: s, low: e.base}
			break
		}
		e.base = q.low
		e.mask &^= 1 << b
		for s := q.head; s >= 0; {
			ev := &e.events[s]
			next := ev.next
			e.link(ev, s)
			s = next
		}
	}
	slot := e.buckets[0].head
	ev := &e.events[slot]
	if ev.when > limit {
		return false
	}
	if ev.next < 0 {
		e.mask &^= 1
	} else {
		e.buckets[0].head = ev.next
		e.events[ev.next].prev = -1
	}
	fn := ev.fn
	e.now = ev.when
	e.fired++
	e.live--
	// Release before firing: fn may schedule into the freed slot, and
	// the generation bump keeps the old ID from reaching the newcomer.
	e.release(slot)
	if e.probeOn {
		e.probe.OnFire(e.now)
	}
	fn()
	return true
}

// Run executes events until the queue drains, Stop is called, or an armed
// watchdog trips (see SetWatchdog; the diagnostic is then available from
// Err).
func (e *Engine) Run() { e.run(MaxTime) }

// RunUntil executes events with timestamps <= deadline, advancing the clock
// to exactly deadline when it returns (even if the queue drained earlier or
// the next event lies beyond the deadline). An armed watchdog aborts the
// run early, leaving the clock where the abort happened.
func (e *Engine) RunUntil(deadline Time) {
	if e.run(deadline) && e.now < deadline {
		e.now = deadline
	}
}

// run fires the events due by limit, which bounds Advance meanwhile, until
// none is left or Stop is called. It reports false if the watchdog tripped.
func (e *Engine) run(limit Time) (ok bool) {
	prev := e.limit
	e.limit, e.stopped, ok = limit, false, true
	for !e.stopped {
		if e.wdOn && (e.wdSlow || e.fired-e.wdBaseFired > e.wdMaxFired) && !e.wdCheck() {
			ok = false
			break
		}
		if !e.step(limit) {
			break
		}
	}
	e.limit = prev
	return ok
}
