package kalloc

import (
	"fmt"
	"math/bits"
)

// AllocCache is the NetDIMM driver's pre-allocation hash table (paper
// Sec. 4.2.2): it keeps PerSubarray pages from every distinct (rank, bank,
// sub-array) ready, so on-demand DMA-buffer allocation returns a
// sub-array-affine page immediately instead of walking the allocator on the
// packet critical path. The paper's driver refills it in the background;
// here it is filled once, at construction.
// Each NetDIMM receive takes two pages for good (Release returns them to
// the zone, not the cache), so the cache drains after
// Buckets x perSubarray / 2 receives; from then on every Get takes the
// allocator slow path.
type AllocCache struct {
	zone        *Zone
	perSubarray int
	// chunks holds the buckets' state by SubarrayKey, dense in
	// [0, zone.Buckets()): a table replaces the paper's hash table, still
	// O(1) without hashing. The pages Refill added are on top, in
	// refilled. Below them lie the prefill pages, never stored: the
	// prefill takes each bucket's first pages, so once refilled[k] is
	// empty bucket k holds exactly pages 0 .. count(k)-1.
	chunks   lazy[cacheChunk]
	refilled pageStacks
	filled   int // buckets holding a page: a drained cache needs no scan
	// cursor is where the next NoHint lookup starts its bucket scan. A
	// rotating cursor spreads no-affinity allocations across sub-arrays
	// (like the kernel's per-CPU freelist rotation) and — unlike ranging
	// over the map — is deterministic, which the parallel experiment
	// harness depends on for byte-identical results.
	cursor int

	hits, slow uint64
}

// cacheChunk is the state of chunk consecutive buckets, zero while each is
// full; drained lets the NoHint lookup skip empty buckets 64 at a time.
type cacheChunk struct {
	deficit [chunk]uint16      // perSubarray minus the pages bucket i holds
	drained [chunk / 64]uint64 // bit i set exactly while bucket i holds none
}

// NewAllocCache builds and pre-fills the cache with perSubarray pages per
// bucket. With the paper's defaults (2 pages x 8K sub-arrays x 2 ranks)
// this pins 32K pages = 128MB, 0.8% of a 16GB NetDIMM. On a zone that has
// not allocated a page yet the prefill stores nothing per bucket: the
// zone's floor and the cache's unmade chunks both read as "prefilled".
func NewAllocCache(zone *Zone, perSubarray int) (*AllocCache, error) {
	if perSubarray < 1 || perSubarray > pagesPerBucket {
		return nil, fmt.Errorf("kalloc: perSubarray %d outside [1, %d]: a (rank, bank, sub-array) bucket holds %d pages",
			perSubarray, pagesPerBucket, pagesPerBucket)
	}
	n := zone.Buckets()
	c := &AllocCache{zone: zone, perSubarray: perSubarray}
	if zone.stats.Allocs == 0 {
		// Take every bucket's first perSubarray pages at once.
		zone.floor = uint16(perSubarray)
		zone.allocCount += int64(perSubarray * n)
		zone.stats.Allocs += uint64(perSubarray * n)
		c.filled = n
		return c, nil
	}
	// On a used zone every bucket starts empty and Refill fills it.
	for key := 0; key < n; key += chunk {
		ch := c.chunks.make(key)
		for i := range ch.deficit {
			ch.deficit[i] = uint16(perSubarray)
		}
		for w := range ch.drained {
			ch.drained[w] = ^uint64(0)
		}
	}
	return c, c.Refill()
}

// Stats returns fast-path hits and slow-path fallbacks.
func (c *AllocCache) Stats() (hits, slowPath uint64) { return c.hits, c.slow }

// count returns the number of ready pages bucket key holds.
func (c *AllocCache) count(key int) int {
	if ch := c.chunks.peek(key); ch != nil {
		return c.perSubarray - int(ch.deficit[key%chunk])
	}
	return c.perSubarray
}

// nonEmpty returns word w of the bitmap of buckets holding a page.
func (c *AllocCache) nonEmpty(w int) uint64 {
	if ch := c.chunks.peek(w << 6); ch != nil {
		return ^ch.drained[w%(chunk/64)]
	}
	return ^uint64(0)
}

// Get returns a page in the same sub-array as hint (a physical address in
// the zone), or any page for NoHint. fast reports whether the page came
// from the cache (O(1) hash lookup) rather than the allocator slow path.
func (c *AllocCache) Get(hint int64) (addr int64, fast bool, err error) {
	if hint != NoHint {
		key, kerr := c.zone.SubarrayKeyOf(hint)
		if kerr != nil {
			return 0, false, kerr
		}
		if c.count(int(key)) > 0 {
			return c.pop(int(key)), true, nil
		}
	} else if key := c.nextNonEmpty(); key >= 0 {
		// No affinity requirement: serve from the next non-empty bucket in
		// key order, resuming where the previous no-hint lookup left off.
		c.cursor = (key + 1) % c.zone.Buckets()
		return c.pop(key), true, nil
	}
	// Slow path: __alloc_netdimm_pages directly.
	c.slow++
	addr, err = c.zone.AllocPageHint(hint)
	return addr, false, err
}

// pop takes the top page of non-empty bucket key as a cache hit, marking
// the bucket drained along with its last page.
func (c *AllocCache) pop(key int) int64 {
	ch, i := c.chunks.make(key), key%chunk
	ch.deficit[i]++
	idx, ok := c.refilled.pop(key)
	if !ok {
		idx = c.perSubarray - int(ch.deficit[i])
	}
	if int(ch.deficit[i]) == c.perSubarray {
		ch.drained[i>>6] |= 1 << uint(i&63)
		c.filled--
	}
	c.hits++
	return c.zone.bucketPage(key, idx)
}

// nextNonEmpty returns the first non-empty bucket at or after the cursor
// in key order, wrapping past the last bucket, or -1 when every bucket is
// empty: the bucket a linear scan of (cursor+i) % Buckets() stops at.
func (c *AllocCache) nextNonEmpty() int {
	if c.filled == 0 {
		return -1
	}
	words := c.zone.Buckets() >> 6
	w := c.cursor >> 6
	if b := c.nonEmpty(w) >> uint(c.cursor&63); b != 0 {
		return c.cursor + bits.TrailingZeros64(b)
	}
	// The other words in order, then word w again: its bits below the
	// cursor are the last buckets the wrapped scan reaches.
	for i := 1; i <= words; i++ {
		j := w + i
		if j >= words {
			j -= words
		}
		if b := c.nonEmpty(j); b != 0 {
			return j<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// Refill tops every bucket back up to perSubarray pages (the paper's
// background maintenance; here only NewAllocCache calls it, on a zone that
// has allocated pages already). Buckets whose sub-array is exhausted are
// skipped — Get then falls back to the allocator's best-effort path. A
// chunk never made is full.
func (c *AllocCache) Refill() error {
	for n, ch := range c.chunks {
		for i := 0; ch != nil && i < chunk; i++ {
			key := n*chunk + i
			for ; ch.deficit[i] > 0; ch.deficit[i]-- {
				idx := c.zone.take(key)
				if idx < 0 {
					break
				}
				if int(ch.deficit[i]) == c.perSubarray { // the bucket's first page
					ch.drained[i>>6] &^= 1 << uint(i&63)
					c.filled++
				}
				c.refilled.push(key, idx)
			}
		}
	}
	return nil
}

// Release returns a previously allocated page to the zone (e.g. after the
// SKB is consumed); the page becomes available to future refills.
func (c *AllocCache) Release(addr int64) error { return c.zone.FreePage(addr) }
