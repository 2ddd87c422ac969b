package memctrl

// QueueDepths reports the current read and write queue occupancy.
func (c *Controller) QueueDepths() (reads, writes int) {
	return c.readQ.n, c.writeQ.n
}

// Waiting reports the lines waiting for a read and a write queue slot.
func (c *Controller) Waiting() (reads, writes int) {
	count := func(q *fifo) (n int) {
		// Rotate the wait FIFO once round, which leaves its order as it was.
		for i := 0; i < q.wait.Len(); i++ {
			e := *q.wait.Head()
			n += e.lines
			q.wait.Drop()
			q.wait.Push(e)
		}
		return n
	}
	return count(&c.readQ), count(&c.writeQ)
}

// take and retire are takeLines and retireLines for one line, as a
// single pick issues it.
func (q *fifo) take(i int) bool                  { return q.takeLines(i, 1) }
func (c *Controller) retire(e *entry, last bool) { c.retireLines(e, 1, last) }
