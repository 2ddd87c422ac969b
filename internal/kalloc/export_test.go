package kalloc

import "netdimm/internal/addrmap"

// FreePages returns the number of currently unallocated pages.
func (z *Zone) FreePages() int64 {
	return z.Size/addrmap.PageSize - z.allocCount
}

// PinnedPages returns the number of pages currently held by the cache.
func (c *AllocCache) PinnedPages() int {
	n := c.zone.Buckets() * c.perSubarray
	for _, ch := range c.chunks {
		for i := 0; ch != nil && i < chunk; i++ {
			n -= int(ch.deficit[i])
		}
	}
	return n
}
