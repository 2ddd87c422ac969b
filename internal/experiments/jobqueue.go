package experiments

import (
	"sync"

	"netdimm/internal/sim"
)

// chunkJobs is the number of jobs in one jobChunk: 32 jobs of 64 B, so a
// chunk is one 2 KB allocation with no pointer in it.
const chunkJobs = 32

// jobChunk is a fixed run of queued jobs.
type jobChunk [chunkJobs]job

// jobQueue is a driver queue's FIFO of jobs, stored in chunks taken from
// the cell's free list and given back to it as soon as the queue drains
// past them. So the memory a cell's queues hold follows the jobs alive at
// once, not each queue's own peak. The zero value is an empty queue; with
// a nil free list it allocates its chunks and leaves drained ones to the
// collector.
type jobQueue struct {
	spare  *chunkList
	chunks sim.FIFO[*jobChunk]
	last   *jobChunk // the tail chunk; nil when the queue is empty
	// head indexes the head job in the first chunk, tail the next free
	// slot in the last one.
	head, tail, n int
}

// Len returns the number of queued jobs.
func (q *jobQueue) Len() int { return q.n }

// Push appends j at the tail.
func (q *jobQueue) Push(j job) {
	if q.last == nil || q.tail == chunkJobs {
		q.last = q.spare.get()
		q.chunks.Push(q.last)
		q.tail = 0
	}
	q.last[q.tail] = j
	q.tail++
	q.n++
}

// Head returns a pointer to the oldest job, valid until the next Drop.
// It panics on an empty queue.
func (q *jobQueue) Head() *job { return &(*q.chunks.Head())[q.head] }

// Drop removes the head job, giving its chunk back once the queue has
// drained past it. It panics on an empty queue.
func (q *jobQueue) Drop() {
	q.n--
	if q.head++; q.head == chunkJobs || q.n == 0 {
		q.spare.put(*q.chunks.Head())
		q.chunks.Drop()
		q.head = 0
		if q.n == 0 {
			q.last = nil
		}
	}
}

// chunkList is a free list of job chunks that one cell's queues share
// without a lock: a cell takes it from its sweep's jobPool when it is
// built and gives it back once it has run.
type chunkList struct {
	free []*jobChunk
}

// get returns a free chunk, or a new one when none is free or l is nil.
func (l *chunkList) get() *jobChunk {
	if l == nil || len(l.free) == 0 {
		return new(jobChunk)
	}
	c := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return c
}

// put returns c to the free list; a nil l drops it.
func (l *chunkList) put(c *jobChunk) {
	if l != nil {
		l.free = append(l.free, c)
	}
}

// jobPool is a sweep's job chunks between cells: the free lists of the
// cells that have run, shared by the sweep's cells under a mutex, as
// collShape's vecPool is. A sweep so holds about one cell's peak of
// queued jobs per worker. A queue writes each job in full before it reads
// it, so what a chunk held in an earlier cell never shows, and results
// stay the same at any parallelism.
type jobPool struct {
	mu    sync.Mutex
	lists []*chunkList
}

// take hands a cell a free list an earlier cell gave back, or a new one.
func (p *jobPool) take() *chunkList {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.lists)
	if n == 0 {
		return &chunkList{}
	}
	l := p.lists[n-1]
	p.lists = p.lists[:n-1]
	return l
}

// give takes back a free list no queue uses any more.
func (p *jobPool) give(l *chunkList) {
	p.mu.Lock()
	p.lists = append(p.lists, l)
	p.mu.Unlock()
}
