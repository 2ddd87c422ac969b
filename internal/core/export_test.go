package core

import "netdimm/internal/dram"

// Lines returns the capacity in cachelines.
func (c *NCache) Lines() int { return c.ways << c.setShift }

// Invalidate drops the line at addr if present, as one snoop.
func (c *NCache) Invalidate(addr int64) { c.drop(c.locate(addr)) }

// Occupancy returns the number of valid lines.
func (c *NCache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// LastCloneMode reports the mode of the most recent completed clone.
func (rf *RegisterFile) LastCloneMode() dram.CloneMode { return rf.lastCloneMode }
