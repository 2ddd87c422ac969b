package kalloc

import "netdimm/internal/addrmap"

// FreePages returns the number of currently unallocated pages.
func (z *Zone) FreePages() int64 {
	return z.Size/addrmap.PageSize - z.allocCount
}

// PinnedPages returns the number of pages currently held by the cache.
func (c *AllocCache) PinnedPages() int {
	n := 0
	for _, k := range c.count {
		n += int(k)
	}
	return n
}
