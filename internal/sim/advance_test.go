package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// logProbe records every callback with the engine's Pending() at the time.
type logProbe struct {
	e   *Engine
	log *[]string
}

func (p logProbe) OnSchedule(when Time) {
	*p.log = append(*p.log, fmt.Sprintf("schedule %v pending=%d", when, p.e.Pending()))
}
func (p logProbe) OnFire(when Time) {
	*p.log = append(*p.log, fmt.Sprintf("fire %v pending=%d", when, p.e.Pending()))
}
func (p logProbe) OnCancel(when Time) {
	*p.log = append(*p.log, fmt.Sprintf("cancel %v pending=%d", when, p.e.Pending()))
}

// TestAdvance runs a handler at 10ns that tries to Advance to when, and a
// reference run whose handler schedules the same work with At when Advance
// should succeed and does nothing when it should refuse. Both runs must
// log the same probe callbacks (with Pending), the same Now and Fired in
// the handler and in the work, and the same end state.
func TestAdvance(t *testing.T) {
	const at = 10 * Nanosecond
	cases := []struct {
		name  string
		setup func(e *Engine) // after the handler is scheduled
		act   func(e *Engine) // in the handler, before Advance
		run   func(e *Engine)
		when  Time
		ok    bool
	}{
		{name: "empty queue", when: 20 * Nanosecond, ok: true},
		{name: "same instant, empty queue", when: at, ok: true},
		{name: "later pending event", when: 20 * Nanosecond, ok: true,
			setup: func(e *Engine) { e.At(21*Nanosecond, nop) }},
		{name: "at the RunUntil deadline", when: 20 * Nanosecond, ok: true,
			run: func(e *Engine) { e.RunUntil(20 * Nanosecond) }},
		{name: "pending event at when", when: 20 * Nanosecond,
			setup: func(e *Engine) { e.At(20*Nanosecond, nop) }},
		{name: "same-instant event in bucket 0", when: at,
			setup: func(e *Engine) { e.At(at, nop) }},
		{name: "earlier pending event", when: 20 * Nanosecond,
			setup: func(e *Engine) { e.At(15*Nanosecond, nop) }},
		{name: "past the RunUntil deadline", when: 20 * Nanosecond,
			run: func(e *Engine) { e.RunUntil(20*Nanosecond - 1) }},
		{name: "after Stop", when: 20 * Nanosecond,
			act: func(e *Engine) { e.Stop() }},
		{name: "watchdog armed", when: 20 * Nanosecond,
			setup: func(e *Engine) { e.SetWatchdog(Watchdog{MaxEvents: 1 << 40}) }},
		{name: "before now", when: at - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			side := func(inline bool) []string {
				var log []string
				e := NewEngine()
				e.SetProbe(logProbe{e, &log})
				note := func(what string) {
					log = append(log, fmt.Sprintf("%s now=%v fired=%d", what, e.Now(), e.Fired()))
				}
				work := func() { note("work") }
				e.At(at, func() {
					if tc.act != nil {
						tc.act(e)
					}
					switch {
					case !inline:
						if tc.ok {
							e.At(tc.when, work)
						} else {
							note("refused")
						}
					case e.Advance(tc.when):
						if !tc.ok {
							t.Fatalf("Advance(%v) succeeded", tc.when)
						}
						work()
					default:
						if tc.ok {
							t.Fatalf("Advance(%v) refused", tc.when)
						}
						note("refused")
					}
				})
				if tc.setup != nil {
					tc.setup(e)
				}
				if tc.run != nil {
					tc.run(e)
				} else {
					e.Run()
				}
				note("end")
				return log
			}
			if got, want := side(true), side(false); !reflect.DeepEqual(got, want) {
				t.Fatalf("inline run\n %q\nscheduled run\n %q", got, want)
			}
		})
	}
}

// Outside a Run or RunUntil call there is no running event to extend.
func TestAdvanceOutsideRun(t *testing.T) {
	e := NewEngine()
	if e.Advance(0) {
		t.Fatal("Advance succeeded on a new engine")
	}
	e.At(Nanosecond, nop)
	e.RunUntil(2 * Nanosecond)
	if e.Advance(3*Nanosecond) || e.Now() != 2*Nanosecond || e.Fired() != 1 {
		t.Fatalf("Advance after RunUntil: now=%v fired=%d", e.Now(), e.Fired())
	}
	// A nested RunUntil restores the outer Run's limit.
	var ok bool
	e.At(5*Nanosecond, func() {
		e.RunUntil(5 * Nanosecond)
		ok = e.Advance(MaxTime)
	})
	e.Run()
	if !ok || e.Now() != MaxTime {
		t.Fatalf("Advance after a nested RunUntil: %v, now=%v", ok, e.Now())
	}
}

// TestAdvanceN runs a handler at 10ns that tries AdvanceN(30ns, n), and a
// reference run whose handler schedules a chain of n events, one every
// 20ns/n, ending at 30ns, when AdvanceN should succeed. Both must show the
// same Now and Fired in the work and at the end. AdvanceN must refuse,
// leaving the clock and Fired as they were, when an event is pending by
// 30ns, past the deadline, after Stop, under a watchdog, and under a probe
// for n > 1; with a probe and n == 1 it is Advance.
func TestAdvanceN(t *testing.T) {
	const at, when = 10 * Nanosecond, 30 * Nanosecond
	cases := []struct {
		name  string
		n     uint64
		setup func(e *Engine)
		run   func(e *Engine)
		ok    bool
	}{
		{name: "empty queue", n: 5, ok: true},
		{name: "later pending event", n: 4, ok: true, setup: func(e *Engine) { e.At(when+1, nop) }},
		{name: "at the RunUntil deadline", n: 3, ok: true, run: func(e *Engine) { e.RunUntil(when) }},
		{name: "probe, one event", n: 1, ok: true, setup: func(e *Engine) { e.SetProbe(logProbe{e, new([]string)}) }},
		{name: "probe, two events", n: 2, setup: func(e *Engine) { e.SetProbe(logProbe{e, new([]string)}) }},
		{name: "pending event between", n: 5, setup: func(e *Engine) { e.At(20*Nanosecond, nop) }},
		{name: "pending event at when", n: 5, setup: func(e *Engine) { e.At(when, nop) }},
		{name: "past the RunUntil deadline", n: 2, run: func(e *Engine) { e.RunUntil(when - 1) }},
		{name: "watchdog armed", n: 2, setup: func(e *Engine) { e.SetWatchdog(Watchdog{MaxEvents: 1 << 40}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			side := func(inline bool) []string {
				var log []string
				e := NewEngine()
				note := func(what string) {
					log = append(log, fmt.Sprintf("%s now=%v fired=%d", what, e.Now(), e.Fired()))
				}
				work := func() { note("work") }
				e.At(at, func() {
					switch {
					case !inline:
						if !tc.ok {
							note("refused")
							return
						}
						gap := (when - at) / Time(tc.n)
						var chain func(k uint64)
						chain = func(k uint64) {
							if k == tc.n {
								work()
								return
							}
							next := at + Time(k+1)*gap
							if k+1 == tc.n {
								next = when
							}
							e.At(next, func() { chain(k + 1) })
						}
						chain(0)
					case e.AdvanceN(when, tc.n):
						if !tc.ok {
							t.Fatalf("AdvanceN(%v, %d) succeeded", when, tc.n)
						}
						work()
					default:
						if tc.ok {
							t.Fatalf("AdvanceN(%v, %d) refused", when, tc.n)
						}
						note("refused")
					}
				})
				if tc.setup != nil {
					tc.setup(e)
				}
				if tc.run != nil {
					tc.run(e)
				} else {
					e.Run()
				}
				note("end")
				return log
			}
			if got, want := side(true), side(false); !reflect.DeepEqual(got, want) {
				t.Fatalf("inline run\n %q\nscheduled run\n %q", got, want)
			}
		})
	}
}
