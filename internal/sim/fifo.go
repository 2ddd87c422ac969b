package sim

import "fmt"

// chunkLen is the number of values in one FIFO chunk. A queue holds at
// most one partly used chunk at each end, so short chunks keep its storage
// close to its depth. That matters for a fabric cell's many shallow port
// and delay-line queues: at 16 or 32 values per chunk they hold more
// memory than at 4.
const chunkLen = 4

// chunk is a fixed run of queued values, linked to the next chunk of its
// queue or free list. The link comes first, so a chunk of pointer-free
// values costs the collector one scanned word.
type chunk[T any] struct {
	next *chunk[T]
	v    [chunkLen]T
}

// Chunks is a free list of FIFO chunks. Queues that share one give each
// chunk back as soon as they drain past it, so the memory they hold
// follows the values alive at once, not each queue's own peak. A list is
// not safe for concurrent use.
type Chunks[T any] struct {
	free *chunk[T]
}

// get returns a free chunk, or a new one when none is free. Every slot of
// a free chunk is zero.
func (l *Chunks[T]) get() *chunk[T] {
	c := l.free
	if c == nil {
		return new(chunk[T])
	}
	l.free, c.next = c.next, nil
	return c
}

// put returns c, every slot of which is zero, to the list.
func (l *Chunks[T]) put(c *chunk[T]) { c.next, l.free = l.free, c }

// Len returns the number of free chunks.
func (l *Chunks[T]) Len() int {
	n := 0
	for c := l.free; c != nil; c = c.next {
		n++
	}
	return n
}

// FIFO is a queue stored in chunks of chunkLen values. The zero value is
// an empty queue that allocates nothing until a value is first added and
// keeps the chunks it drains on a list of its own, so a queue at its
// working depth adds and drops values without allocating. Share points a
// queue at a list that other queues use too.
type FIFO[T any] struct {
	head, tail *chunk[T] // nil when the queue is empty
	hi, n      int       // the head value's slot in head; the queued values
	shared     *Chunks[T]
	own        Chunks[T]
}

// Share makes q take its chunks from l and give drained ones back to it.
// Call it before the first value is added.
func (q *FIFO[T]) Share(l *Chunks[T]) { q.shared = l }

// chunks returns the list q takes its chunks from.
func (q *FIFO[T]) chunks() *Chunks[T] {
	if q.shared != nil {
		return q.shared
	}
	return &q.own
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) { *q.Tail() = v }

// Tail appends a zero value and returns a pointer to it, for filling in
// place; the pointer is valid until the value is dropped.
func (q *FIFO[T]) Tail() *T {
	// The values fill their chunks from slot hi of the head chunk on, so
	// the next free slot is (hi+n) mod chunkLen, and at 0 the tail chunk
	// is full.
	i := (q.hi + q.n) % chunkLen
	if q.n == 0 || i == 0 {
		c := q.chunks().get()
		if q.n == 0 {
			q.head = c
		} else {
			q.tail.next = c
		}
		q.tail = c
	}
	q.n++
	return &q.tail.v[i]
}

// Head returns a pointer to the oldest value, valid until the next Drop.
// It panics on an empty queue.
func (q *FIFO[T]) Head() *T {
	if q.n == 0 {
		panic("sim: Head of an empty FIFO")
	}
	return &q.head.v[q.hi]
}

// Drop removes the head, giving its chunk back once the queue has drained
// past it. It panics on an empty queue.
func (q *FIFO[T]) Drop() {
	if q.n == 0 {
		panic("sim: Drop on an empty FIFO")
	}
	c := q.head
	var zero T
	c.v[q.hi] = zero // drop the slot's references
	q.n--
	if q.hi++; q.hi == chunkLen || q.n == 0 {
		q.head, q.hi = c.next, 0
		if q.n == 0 {
			q.tail = nil
		}
		q.chunks().put(c)
	}
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
