package sim

import (
	"strings"
	"testing"
)

// The ring keeps FIFO order across wrap-around and growth, and a warm
// queue pushes and pops without allocating.
func TestFIFOOrderAcrossGrowth(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	// Interleave pushes and pops so the head walks around the ring while
	// it doubles from 4 to 64 slots.
	for round := 1; round <= 40; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			if *q.Last() != next {
				t.Fatalf("round %d: last %d, want %d", round, *q.Last(), next)
			}
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
	if n := testing.AllocsPerRun(100, func() {
		*q.Tail() = 1
		q.Push(2)
		q.Drop()
		q.Drop()
	}); n != 0 {
		t.Fatalf("warm FIFO allocates %v times per round", n)
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
