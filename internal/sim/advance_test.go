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
