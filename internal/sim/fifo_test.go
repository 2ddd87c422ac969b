package sim

import (
	"strings"
	"testing"
)

// The queue keeps FIFO order as it grows and shrinks across chunk
// boundaries, with the head walking through chunks of every fill.
func TestFIFOOrderAcrossGrowth(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for round := 1; round <= 40; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5 && q.Len() > 0; i++ {
			if got := *q.Head(); got != want {
				t.Fatalf("round %d: head %d, want %d", round, got, want)
			}
			q.Drop()
			want++
		}
	}
	for q.Len() > 0 {
		if *q.Head() != want {
			t.Fatalf("head %d, want %d", *q.Head(), want)
		}
		q.Drop()
		want++
	}
	if want != next {
		t.Fatalf("drained %d of %d values", want, next)
	}
}

// item is a pointer-free queued value the size of the cell transport's
// driver jobs.
type item struct {
	tag int
	pad [7]int64
}

// TestFIFOSharedChunks drives two queues that share one free list through
// random interleaved pushes and drops, against a slice per queue: every
// Head and Len matches, order holds across chunk boundaries, and a queue
// holds exactly the chunks its values span, the others being free. Once
// both queues have drained, every chunk either made is free again.
func TestFIFOSharedChunks(t *testing.T) {
	var spare Chunks[item]
	var qs [2]FIFO[item]
	for k := range qs {
		qs[k].Share(&spare)
	}
	var want [2][]int
	r := NewRand(39)
	made, next := 0, 0
	check := func(step int) {
		t.Helper()
		held := 0
		for k := range qs {
			q := &qs[k]
			if q.Len() != len(want[k]) {
				t.Fatalf("step %d queue %d: Len %d, want %d", step, k, q.Len(), len(want[k]))
			}
			span := 0 // the chunks the values span, from slot hi of the first on
			if q.Len() > 0 {
				span = (q.hi + q.Len() + chunkLen - 1) / chunkLen
				if q.Head().tag != want[k][0] {
					t.Fatalf("step %d queue %d: Head %d, want %d", step, k, q.Head().tag, want[k][0])
				}
			}
			if got := chunksFrom(q.head); got != span {
				t.Fatalf("step %d queue %d: %d chunks for %d values from slot %d", step, k, got, q.Len(), q.hi)
			}
			if q.own.Len() != 0 {
				t.Fatalf("step %d queue %d: %d chunks on its own list", step, k, q.own.Len())
			}
			held += span
		}
		made = max(made, held+spare.Len())
		if held+spare.Len() != made {
			t.Fatalf("step %d: %d chunks held + %d free, but %d were made", step, held, spare.Len(), made)
		}
	}
	for step := 0; step < 20000; step++ {
		k := r.Intn(2)
		q := &qs[k]
		// Drift towards deep queues, then drain: pushes win 3:2 in the
		// first half and lose 2:3 in the second.
		push := r.Intn(5) < 3
		if step >= 10000 {
			push = r.Intn(5) < 2
		}
		if push {
			q.Push(item{tag: next, pad: [7]int64{int64(next)}})
			want[k] = append(want[k], next)
			next++
		} else if q.Len() > 0 {
			if v := q.Head(); v.tag != want[k][0] || v.pad[0] != int64(want[k][0]) {
				t.Fatalf("step %d queue %d: head %+v, want tag %d", step, k, *v, want[k][0])
			}
			q.Drop()
			want[k] = want[k][1:]
		}
		check(step)
	}
	for k := range qs {
		for qs[k].Len() > 0 {
			if got := qs[k].Head().tag; got != want[k][0] {
				t.Fatalf("drain queue %d: Head %d, want %d", k, got, want[k][0])
			}
			qs[k].Drop()
			want[k] = want[k][1:]
		}
	}
	check(-1)
	if made < 4 || spare.Len() != made {
		t.Fatalf("%d chunks made, %d free after draining; want several, all free", made, spare.Len())
	}
	for c := spare.free; c != nil; c = c.next {
		if c.v != [chunkLen]item{} {
			t.Fatalf("free chunk holds %+v, want zero slots", c.v)
		}
	}
}

// chunksFrom counts the chunks linked from c on.
func chunksFrom(c *chunk[item]) int {
	n := 0
	for ; c != nil; c = c.next {
		n++
	}
	return n
}

// TestFIFOPrivateChunks checks that a queue with no shared list keeps the
// chunks it drains on its own list and fills from them again.
func TestFIFOPrivateChunks(t *testing.T) {
	var q FIFO[item]
	const depth = 3*chunkLen + 1
	for round := 0; round < 2; round++ {
		for i := 0; i < depth; i++ {
			q.Push(item{tag: i})
		}
		for i := 0; i < depth; i++ {
			if q.Head().tag != i {
				t.Fatalf("round %d: Head %d, want %d", round, q.Head().tag, i)
			}
			q.Drop()
		}
		if q.Len() != 0 || q.head != nil || q.tail != nil {
			t.Fatalf("round %d: drained queue holds Len %d, head %p, tail %p", round, q.Len(), q.head, q.tail)
		}
		if got := q.own.Len(); got != 4 {
			t.Fatalf("round %d: %d chunks on the queue's list, want 4", round, got)
		}
	}
}

// A warm private queue adds and drops values without allocating, both
// when it swings between empty and one value and when it holds a steady
// depth that walks its head and tail across chunk boundaries.
func TestFIFOWarmAllocs(t *testing.T) {
	var swing FIFO[item]
	swing.Push(item{})
	swing.Drop()
	if n := testing.AllocsPerRun(100, func() {
		swing.Tail().tag = 1
		swing.Drop()
	}); n != 0 {
		t.Errorf("a queue swinging between 0 and 1 values allocates %v times per round", n)
	}
	var steady FIFO[*int]
	v := new(int)
	for i := 0; i < 2*chunkLen+1; i++ {
		steady.Push(v)
	}
	// AllocsPerRun's warm-up round makes the chunk the depth needs from
	// the worst head slot.
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < chunkLen+1; i++ {
			steady.Push(v)
			steady.Drop()
		}
	}); n != 0 {
		t.Errorf("a queue at a steady depth allocates %v times per round", n)
	}
}

func TestFIFOEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Drop on an empty FIFO did not panic")
		}
	}()
	var q FIFO[string]
	q.Drop()
}

// A delay line hands values over exactly one delay after their push, in
// push order, including several pushed at one instant.
func TestDelayLineDeliversInPushOrder(t *testing.T) {
	eng := NewEngine()
	type got struct {
		v  int
		at Time
	}
	var out []got
	var d DelayLine[int]
	d.Init(eng, 50, func(v int) { out = append(out, got{v, eng.Now()}) })
	for i, at := range []Time{0, 0, 10, 30, 30, 200} {
		i := i
		eng.At(at, func() { d.Push(i) })
	}
	eng.Run()
	want := []got{{0, 50}, {1, 50}, {2, 60}, {3, 80}, {4, 80}, {5, 250}}
	if len(out) != len(want) {
		t.Fatalf("delivered %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("delivered %v, want %v", out, want)
		}
	}
	if d.q.Len() != 0 {
		t.Fatalf("%d values still waiting", d.q.Len())
	}
}

// The constant-delay precondition is checked: a value coming due at a
// different instant than the event popping it panics instead of being
// handed over late or early.
func TestDelayLinePanicsOnBrokenPrecondition(t *testing.T) {
	eng := NewEngine()
	var d DelayLine[int]
	d.Init(eng, 50, func(int) {})
	d.Push(1)
	d.delay = 20 // breaks the precondition: this push comes due first
	d.Push(2)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "due at 50ps delivered at 20ps") {
			t.Fatalf("recovered %v, want the due-instant panic", r)
		}
	}()
	eng.Run()
}
