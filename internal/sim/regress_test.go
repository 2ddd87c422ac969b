package sim

import (
	"math"
	"testing"
)

// TestPendingExactAcrossReapPaths guards Pending across the ways a pending
// event leaves the queue: a cancel unlinks and frees its slot at once, a
// fire pops it from bucket 0 (step-side), and a RunUntil look-ahead may
// rebase the queue and spread a bucket without firing anything
// (peek-side). Pending must stay exact no matter how the paths interleave;
// a slot released twice or never would show up here.
func TestPendingExactAcrossReapPaths(t *testing.T) {
	e := NewEngine()
	r := NewRand(42)
	live := make(map[EventID]struct{})
	want := 0
	for round := 0; round < 2000; round++ {
		switch r.Intn(5) {
		case 0, 1: // schedule
			id := e.Schedule(Time(1+r.Intn(50)), nop)
			live[id] = struct{}{}
			want++
		case 2: // cancel a random live event, then force a look-ahead
			for id := range live {
				if !e.Cancel(id) {
					t.Fatalf("round %d: live event %#x refused cancellation", round, uint64(id))
				}
				delete(live, id)
				want--
				break
			}
			// RunUntil on an instant before every pending event looks
			// ahead without firing anything.
			e.RunUntil(e.Now())
		case 3: // fire everything due soon
			horizon := e.Now() + Time(r.Intn(20))
			fired := e.Fired()
			e.RunUntil(horizon)
			want -= int(e.Fired() - fired)
			// Drop fired events from the tracking set: their slots now
			// carry a bumped generation or a nil fn.
			for id := range live {
				slot := int64(id>>32) - 1
				ev := &e.events[slot]
				if ev.gen != uint32(id) || ev.fn == nil {
					delete(live, id)
				}
			}
		case 4: // pure peek churn
			e.RunUntil(e.Now())
		}
		if e.Pending() != want {
			t.Fatalf("round %d: Pending = %d, want %d", round, e.Pending(), want)
		}
		if e.Pending() != len(live) {
			t.Fatalf("round %d: Pending = %d but %d events tracked live", round, e.Pending(), len(live))
		}
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// TestCancelThenReapInterleavings pins the cancel-then-run scenarios:
// a cancelled event's slot is released exactly once, whether the queue
// next looks ahead or fires, so the free list and Pending stay exact.
func TestCancelThenReapInterleavings(t *testing.T) {
	t.Run("peek then step", func(t *testing.T) {
		e := NewEngine()
		id := e.Schedule(5, nop)
		e.Schedule(10, nop)
		e.Cancel(id)
		if got := e.Pending(); got != 1 {
			t.Fatalf("Pending after cancel = %d, want 1", got)
		}
		e.RunUntil(1) // look ahead past nothing due
		if got := e.Pending(); got != 1 {
			t.Fatalf("Pending after look-ahead = %d, want 1", got)
		}
		e.Run() // firing must not find the cancelled slot again
		if e.Pending() != 0 || e.Fired() != 1 {
			t.Fatalf("Pending = %d Fired = %d, want 0 and 1", e.Pending(), e.Fired())
		}
		if len(e.free) != 2 {
			t.Fatalf("free list holds %d slots, want 2", len(e.free))
		}
	})
	t.Run("step reaps directly", func(t *testing.T) {
		e := NewEngine()
		id := e.Schedule(5, nop)
		e.Schedule(10, nop)
		e.Cancel(id)
		e.Run() // fires the live event; the cancelled slot is already free
		if e.Pending() != 0 || e.Fired() != 1 {
			t.Fatalf("Pending = %d Fired = %d, want 0 and 1", e.Pending(), e.Fired())
		}
		if len(e.free) != 2 {
			t.Fatalf("free list holds %d slots, want 2", len(e.free))
		}
	})
}

// TestGenWraparoundStaleID white-boxes the EventID generation counter: a
// slot whose gen wraps the full uint32 range must still reject the stale
// ID minted for a prior occupancy, even when the wrap lands the counter
// back on the exact value the stale ID carries only while the slot is
// empty or re-armed with a bumped generation.
func TestGenWraparoundStaleID(t *testing.T) {
	e := NewEngine()
	id := e.Schedule(1, nop) // occupies slot 0 at gen 0
	e.Run()                  // fires; release bumps slot 0 to gen 1
	if e.Cancel(id) {
		t.Fatal("stale ID cancelled after one release")
	}
	// Drive the slot's generation to the wrap boundary and step across it.
	e.events[0].gen = math.MaxUint32
	wrapID := e.Schedule(1, nop) // slot 0, gen MaxUint32
	e.Run()                      // release wraps gen to 0
	if got := e.events[0].gen; got != 0 {
		t.Fatalf("gen after wrap = %d, want 0", got)
	}
	if e.Cancel(wrapID) {
		t.Fatal("stale gen=MaxUint32 ID cancelled the wrapped slot")
	}
	// The next occupant mints gen 0 — numerically equal to a hypothetical
	// ID from 2^32 occupancies ago; the fresh ID must work, the stale
	// wrap-boundary one must not.
	freshID := e.Schedule(1, nop)
	if e.Cancel(wrapID) {
		t.Fatal("wrap-boundary stale ID cancelled the new occupant")
	}
	if !e.Cancel(freshID) {
		t.Fatal("fresh post-wrap ID refused to cancel its own event")
	}
}

// TestGenWraparoundProperty drives one slot through many randomly seeded
// generations: at every occupancy, every previously minted ID must be
// inert and only the current ID may cancel.
func TestGenWraparoundProperty(t *testing.T) {
	e := NewEngine()
	r := NewRand(7)
	var stale []EventID
	for round := 0; round < 300; round++ {
		// Plant the slot at a random generation (including near-wrap
		// values) before occupying it, as 2^gen occupancies would.
		e.events = e.events[:0]
		e.events = append(e.events, event{gen: uint32(r.Uint64())})
		e.free = append(e.free[:0], 0)
		stale = stale[:0]
		cur := e.Schedule(1, nop)
		for hop := 0; hop < 4; hop++ {
			stale = append(stale, cur)
			e.Run() // fire and release: gen advances (possibly wrapping)
			for _, s := range stale {
				if e.Cancel(s) {
					t.Fatalf("round %d hop %d: stale ID %#x cancelled an empty slot", round, hop, uint64(s))
				}
			}
			cur = e.Schedule(1, nop)
			for _, s := range stale {
				if e.Cancel(s) {
					t.Fatalf("round %d hop %d: stale ID %#x cancelled the new occupant", round, hop, uint64(s))
				}
			}
			if e.Pending() != 1 {
				t.Fatalf("round %d hop %d: Pending = %d, want 1", round, hop, e.Pending())
			}
		}
		if !e.Cancel(cur) {
			t.Fatalf("round %d: current ID refused to cancel", round)
		}
		e.Run() // the next round starts from an empty queue
	}
}
