package memctrl

// QueueDepths reports the current read and write queue occupancy.
func (c *Controller) QueueDepths() (reads, writes int) {
	return c.readQ.n, c.writeQ.n
}
