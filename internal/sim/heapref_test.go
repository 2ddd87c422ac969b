package sim

import (
	"fmt"
	"math/bits"
	"testing"
)

// This file keeps the binary heap of slot indices that the radix queue
// replaced — events ordered by (when, seq), lazy cancellation reaped at the
// root — as the reference the engine must match operation for operation.

type heapEvent struct {
	when Time
	seq  uint64
	fn   func()
	gen  uint32
	dead bool
}

type heapEngine struct {
	now     Time
	events  []heapEvent
	free    []int32
	heap    []int32
	nextSeq uint64
	live    int
	fired   uint64
	stopped bool
}

func (e *heapEngine) Now() Time     { return e.now }
func (e *heapEngine) Fired() uint64 { return e.fired }
func (e *heapEngine) Pending() int  { return e.live }
func (e *heapEngine) Stop()         { e.stopped = true }
func (e *heapEngine) less(i, j int) bool {
	a, b := &e.events[e.heap[i]], &e.events[e.heap[j]]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *heapEngine) Schedule(delay Time, fn func()) EventID { return e.At(e.now+delay, fn) }

func (e *heapEngine) At(when Time, fn func()) EventID {
	if when < e.now {
		panic(fmt.Sprintf("heap reference: scheduling event at %v before now %v", when, e.now))
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.events = append(e.events, heapEvent{})
		slot = int32(len(e.events) - 1)
	}
	ev := &e.events[slot]
	ev.when, ev.seq, ev.fn, ev.dead = when, e.nextSeq, fn, false
	e.nextSeq++
	e.live++
	e.heap = append(e.heap, slot)
	for i := len(e.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
	return makeID(slot, ev.gen)
}

func (e *heapEngine) Cancel(id EventID) bool {
	slot := int64(id>>32) - 1
	if slot < 0 || slot >= int64(len(e.events)) {
		return false
	}
	ev := &e.events[slot]
	if ev.gen != uint32(id) || ev.dead || ev.fn == nil {
		return false
	}
	ev.dead, ev.fn = true, nil
	e.live--
	return true
}

func (e *heapEngine) release(slot int32) {
	ev := &e.events[slot]
	ev.fn, ev.dead = nil, false
	ev.gen++
	e.free = append(e.free, slot)
}

func (e *heapEngine) popRoot() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	for i := 0; ; {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && e.less(right, left) {
			least = right
		}
		if !e.less(least, i) {
			return
		}
		e.heap[i], e.heap[least] = e.heap[least], e.heap[i]
		i = least
	}
}

// root reaps dead entries off the root and returns the live root's slot.
func (e *heapEngine) root() (int32, bool) {
	for len(e.heap) > 0 {
		slot := e.heap[0]
		if !e.events[slot].dead {
			return slot, true
		}
		e.release(slot)
		e.popRoot()
	}
	return 0, false
}

func (e *heapEngine) step() {
	slot, _ := e.root()
	e.popRoot()
	ev := &e.events[slot]
	fn := ev.fn
	e.now = ev.when
	e.fired++
	e.live--
	e.release(slot)
	fn()
}

func (e *heapEngine) Run() {
	e.stopped = false
	for !e.stopped {
		if _, ok := e.root(); !ok {
			return
		}
		e.step()
	}
}

func (e *heapEngine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		slot, ok := e.root()
		if !ok || e.events[slot].when > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// queue is the engine surface the differential test drives on both sides.
type queue interface {
	At(Time, func()) EventID
	Schedule(Time, func()) EventID
	Cancel(EventID) bool
	Run()
	RunUntil(Time)
	Stop()
	Now() Time
	Pending() int
	Fired() uint64
}

// diffSide runs one queue and records its fire order. Event k's callback
// acts on tag k alone, so two sides that fire the same tags in the same
// order make the same nested calls.
type diffSide struct {
	q   queue
	ids []EventID // by tag
	log []string
}

func (s *diffSide) schedule(at bool, t Time) {
	tag := len(s.ids)
	fn := func() { s.fired(tag) }
	if at {
		s.ids = append(s.ids, s.q.At(t, fn))
	} else {
		s.ids = append(s.ids, s.q.Schedule(t, fn))
	}
}

func (s *diffSide) fired(tag int) {
	s.log = append(s.log, fmt.Sprintf("%d@%d", tag, s.q.Now()))
	h := uint64(tag) * 0x9e3779b97f4a7c15
	if len(s.ids) > 20000 {
		return
	}
	switch h >> 61 {
	case 0: // same-instant child
		s.schedule(false, 0)
	case 1: // near child
		s.schedule(false, Time(1+h>>40%7))
	case 2: // cancel an older event, perhaps already fired
		if tag >= 3 {
			s.q.Cancel(s.ids[tag-3])
		}
	case 3:
		if h>>58&1 == 0 {
			s.q.Stop()
		}
	case 4: // chained child, run inline where the engine allows
		at := s.q.Now() + Time(h>>40%5)
		if e, ok := s.q.(*Engine); ok && e.Advance(at) {
			child := len(s.ids)
			s.ids = append(s.ids, 0) // no event: cancelling it is a no-op
			s.fired(child)
		} else {
			s.schedule(true, at)
		}
	}
}

// checkRadix asserts the radix queue's structural invariants: every
// pending event sits in the bucket its instant keys to, each list is
// doubly linked and in schedule order, the mask matches the non-empty
// buckets, base never passes the clock, and no slot leaks.
func checkRadix(t *testing.T, e *Engine) {
	t.Helper()
	if e.base > e.now {
		t.Fatalf("base %v above now %v", e.base, e.now)
	}
	linked := 0
	for b := 0; b < 64; b++ {
		if e.mask&(1<<b) == 0 {
			continue
		}
		prev := int32(-1)
		for s := e.buckets[b].head; s >= 0; s = e.events[s].next {
			ev := &e.events[s]
			if got := bits.Len64(uint64(ev.when ^ e.base)); got != b {
				t.Fatalf("slot %d at %v in bucket %d, keys to %d (base %v)", s, ev.when, b, got, e.base)
			}
			if ev.prev != prev || ev.fn == nil {
				t.Fatalf("slot %d: prev %d want %d, fn nil %v", s, ev.prev, prev, ev.fn == nil)
			}
			prev = s
			linked++
		}
		if e.buckets[b].tail != prev {
			t.Fatalf("bucket %d tail %d, list ends at %d", b, e.buckets[b].tail, prev)
		}
	}
	if linked != e.live || linked+len(e.free) != len(e.events) {
		t.Fatalf("%d linked, %d live, %d free, %d slots", linked, e.live, len(e.free), len(e.events))
	}
}

// TestEngineMatchesHeapReference drives the radix queue and the binary
// heap it replaced through the same random sequences of At, Schedule,
// Cancel, RunUntil, Run and Stop — zero delays and same-instant ties,
// far-future MaxTime/2 backlogs, and RunUntil look-ahead past the next
// event followed by scheduling before it — and requires the same fire
// order, Now, Pending and Fired after every operation. Some handlers chain
// a child through Advance on the radix side where the heap schedules it
// with At, so an inline child must fire exactly where its event would.
func TestEngineMatchesHeapReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		eng := NewEngine()
		a := &diffSide{q: eng}
		b := &diffSide{q: &heapEngine{}}
		r := NewRand(seed)
		for op := 0; op < 1500; op++ {
			var name string
			now := a.q.Now()
			switch r.Intn(10) {
			case 0, 1:
				d := Time(r.Intn(4))
				name = fmt.Sprintf("Schedule(%d)", d)
				a.schedule(false, d)
				b.schedule(false, d)
			case 2:
				d := Time(r.Intn(3000))
				name = fmt.Sprintf("Schedule(%d)", d)
				a.schedule(false, d)
				b.schedule(false, d)
			case 3:
				at := max(now, MaxTime/2) + Time(r.Intn(1<<20))
				name = fmt.Sprintf("At(%d)", at)
				a.schedule(true, at)
				b.schedule(true, at)
			case 4:
				if len(a.ids) == 0 {
					continue
				}
				tag := r.Intn(len(a.ids))
				name = fmt.Sprintf("Cancel(tag %d)", tag)
				if ca, cb := a.q.Cancel(a.ids[tag]), b.q.Cancel(b.ids[tag]); ca != cb {
					t.Fatalf("seed %d op %d %s: radix %v, heap %v", seed, op, name, ca, cb)
				}
			case 5, 6:
				d := now + Time(r.Intn(200))
				name = fmt.Sprintf("RunUntil(%d)", d)
				a.q.RunUntil(d)
				b.q.RunUntil(d)
			case 7: // look ahead, then schedule before the peeked event
				d := now + Time(r.Intn(20))
				at := d + Time(r.Intn(40))
				name = fmt.Sprintf("RunUntil(%d)+At(%d)", d, at)
				a.q.RunUntil(d)
				b.q.RunUntil(d)
				a.schedule(true, at)
				b.schedule(true, at)
			case 8:
				name = "RunUntil(now)"
				a.q.RunUntil(now)
				b.q.RunUntil(now)
			case 9:
				if r.Intn(20) != 0 {
					continue
				}
				name = "Run"
				a.q.Run()
				b.q.Run()
			}
			if len(a.log) != len(b.log) {
				t.Fatalf("seed %d op %d %s: radix fired %d events, heap %d", seed, op, name, len(a.log), len(b.log))
			}
			for i := range a.log {
				if a.log[i] != b.log[i] {
					t.Fatalf("seed %d op %d %s: fire %d is %s, heap fired %s", seed, op, name, i, a.log[i], b.log[i])
				}
			}
			if a.q.Now() != b.q.Now() || a.q.Pending() != b.q.Pending() || a.q.Fired() != b.q.Fired() {
				t.Fatalf("seed %d op %d %s: radix now=%v pending=%d fired=%d, heap now=%v pending=%d fired=%d",
					seed, op, name, a.q.Now(), a.q.Pending(), a.q.Fired(), b.q.Now(), b.q.Pending(), b.q.Fired())
			}
			checkRadix(t, eng)
			a.log, b.log = a.log[:0], b.log[:0]
		}
	}
}
