package core

import "netdimm/internal/dram"

// Lines returns the capacity in cachelines.
func (c *NCache) Lines() int { return len(c.sets) * c.ways }

// Occupancy returns the number of valid lines.
func (c *NCache) Occupancy() int {
	n := 0
	for _, s := range c.sets {
		for i := range s {
			if s[i].valid {
				n++
			}
		}
	}
	return n
}

// LastCloneMode reports the mode of the most recent completed clone.
func (rf *RegisterFile) LastCloneMode() dram.CloneMode { return rf.lastCloneMode }
