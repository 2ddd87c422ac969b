package sim

import "fmt"

// FIFO is a growable ring-buffer queue. The zero value is an empty queue
// that allocates nothing until a value is first added; the ring doubles
// when full and never shrinks, so a queue at its working depth adds and
// drops values without allocating.
type FIFO[T any] struct {
	ring    []T
	head, n int
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) { *q.Tail() = v }

// Tail appends a zero value and returns a pointer to it, for filling in
// place; the pointer is valid until the queue next grows.
func (q *FIFO[T]) Tail() *T {
	if q.n == len(q.ring) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.n++
	return &q.ring[i]
}

// Head returns a pointer to the oldest value, valid until the next Drop.
// It panics on an empty queue.
func (q *FIFO[T]) Head() *T {
	if q.n == 0 {
		panic("sim: Head of an empty FIFO")
	}
	return &q.ring[q.head]
}

// Last returns a pointer to the newest value, valid until the queue next
// grows. It panics on an empty queue.
func (q *FIFO[T]) Last() *T {
	if q.n == 0 {
		panic("sim: Last of an empty FIFO")
	}
	return &q.ring[(q.head+q.n-1)%len(q.ring)]
}

// Drop removes the head. It panics on an empty queue.
func (q *FIFO[T]) Drop() {
	if q.n == 0 {
		panic("sim: Drop on an empty FIFO")
	}
	var zero T
	q.ring[q.head] = zero // drop the slot's references
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
}

// grow doubles a full ring, unwrapping it so the head lands at slot 0.
func (q *FIFO[T]) grow() {
	ring := make([]T, max(4, 2*len(q.ring)))
	k := copy(ring, q.ring[q.head:])
	copy(ring[k:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// DelayLine hands each pushed value to a handler a fixed delay later, one
// engine event per value. Because every value waits the same delay, values
// come due in push order (same-instant events fire in schedule order), so
// they wait in one FIFO and every event shares one function instead of a
// closure each. Each entry keeps its due instant, and delivery panics if
// that is not the engine's clock: the constant-delay precondition is
// checked, not assumed.
//
// Init sets a line up without allocating; the event function is bound on
// the first Push.
type DelayLine[T any] struct {
	eng   *Engine
	delay Time
	fn    func(T)
	q     FIFO[delayed[T]]
	popFn func() // d.pop, bound on the first Push
}

type delayed[T any] struct {
	due Time
	v   T
}

// Init points the line at eng with the given delay and handler.
func (d *DelayLine[T]) Init(eng *Engine, delay Time, fn func(T)) {
	d.eng, d.delay, d.fn = eng, delay, fn
}

// Push schedules fn(v) one delay from now.
func (d *DelayLine[T]) Push(v T) {
	if d.popFn == nil {
		d.popFn = d.pop
	}
	e := d.q.Tail()
	e.due, e.v = d.eng.now+d.delay, v
	d.eng.Schedule(d.delay, d.popFn)
}

func (d *DelayLine[T]) pop() {
	e := d.q.Head()
	if e.due != d.eng.now {
		panic(fmt.Sprintf("sim: delay-line value due at %v delivered at %v", e.due, d.eng.now))
	}
	v := e.v
	d.q.Drop()
	d.fn(v)
}
