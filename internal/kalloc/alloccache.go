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
	// count[k] is the number of ready pages bucket k holds, indexed by
	// SubarrayKey — keys are dense in [0, zone.Buckets()), so a slice
	// replaces the hash table the paper names (the affinity lookup is
	// still O(1), now without hashing). The pages Refill added are on
	// top, in refilled. Below them lie the prefill pages, which are never
	// stored: the prefill of a zone that has allocated nothing takes each
	// bucket's first pages, so once refilled[k] is empty bucket k holds
	// exactly bucketPage(k, 0 .. count[k]-1) and pop computes the address.
	count    []uint16
	refilled pageStacks
	// nonEmpty has bit k set exactly while count[k] > 0, so the NoHint
	// lookup skips empty buckets 64 at a time and a drained cache answers
	// after one pass over Buckets()/64 words.
	nonEmpty []uint64
	// cursor is where the next NoHint lookup starts its bucket scan. A
	// rotating cursor spreads no-affinity allocations across sub-arrays
	// (like the kernel's per-CPU freelist rotation) and — unlike ranging
	// over the map — is deterministic, which the parallel experiment
	// harness depends on for byte-identical results.
	cursor int

	hits, slow uint64
}

// NewAllocCache builds and pre-fills the cache with perSubarray pages per
// bucket. With the paper's defaults (2 pages x 8K sub-arrays x 2 ranks)
// this pins 32K pages = 128MB, 0.8% of a 16GB NetDIMM. On a zone that has
// not allocated a page yet the prefill stores no page: it sets one count
// per bucket.
func NewAllocCache(zone *Zone, perSubarray int) (*AllocCache, error) {
	if perSubarray < 1 || perSubarray > pagesPerBucket {
		return nil, fmt.Errorf("kalloc: perSubarray %d outside [1, %d]: a (rank, bank, sub-array) bucket holds %d pages",
			perSubarray, pagesPerBucket, pagesPerBucket)
	}
	n := zone.Buckets()
	c := &AllocCache{
		zone:        zone,
		perSubarray: perSubarray,
		count:       make([]uint16, n),
		nonEmpty:    make([]uint64, n/64),
	}
	if zone.stats.Allocs != 0 {
		return c, c.Refill()
	}
	zone.takeFirst(perSubarray)
	fill(c.count, uint16(perSubarray))
	// Buckets() is a whole number of 8K-bucket ranks, so every word is
	// full.
	for w := range c.nonEmpty {
		c.nonEmpty[w] = ^uint64(0)
	}
	return c, nil
}

// Stats returns fast-path hits and slow-path fallbacks.
func (c *AllocCache) Stats() (hits, slowPath uint64) { return c.hits, c.slow }

// Get returns a page in the same sub-array as hint (a physical address in
// the zone), or any page for NoHint. fast reports whether the page came
// from the cache (O(1) hash lookup) rather than the allocator slow path.
func (c *AllocCache) Get(hint int64) (addr int64, fast bool, err error) {
	if hint != NoHint {
		key, kerr := c.zone.SubarrayKeyOf(hint)
		if kerr != nil {
			return 0, false, kerr
		}
		if c.count[key] > 0 {
			return c.pop(int(key)), true, nil
		}
	} else if key := c.nextNonEmpty(); key >= 0 {
		// No affinity requirement: serve from the next non-empty bucket in
		// key order, resuming where the previous no-hint lookup left off.
		c.cursor = (key + 1) % len(c.count)
		return c.pop(key), true, nil
	}
	// Slow path: __alloc_netdimm_pages directly.
	c.slow++
	addr, err = c.zone.AllocPageHint(hint)
	return addr, false, err
}

// pop takes the top page of non-empty bucket key as a cache hit, clearing
// the bucket's nonEmpty bit along with its last page.
func (c *AllocCache) pop(key int) int64 {
	c.count[key]--
	idx, ok := c.refilled.pop(key)
	if !ok {
		idx = int(c.count[key])
	}
	if c.count[key] == 0 {
		c.nonEmpty[key>>6] &^= 1 << uint(key&63)
	}
	c.hits++
	return c.zone.bucketPage(key, idx)
}

// nextNonEmpty returns the first non-empty bucket at or after the cursor
// in key order, wrapping past the last bucket, or -1 when every bucket is
// empty: the bucket a linear scan of (cursor+i) % Buckets() stops at.
func (c *AllocCache) nextNonEmpty() int {
	words := c.nonEmpty
	w := c.cursor >> 6
	if b := words[w] >> uint(c.cursor&63); b != 0 {
		return c.cursor + bits.TrailingZeros64(b)
	}
	// The other words in order, then word w again: its bits below the
	// cursor are the last buckets the wrapped scan reaches.
	for i := 1; i <= len(words); i++ {
		j := w + i
		if j >= len(words) {
			j -= len(words)
		}
		if words[j] != 0 {
			return j<<6 + bits.TrailingZeros64(words[j])
		}
	}
	return -1
}

// Refill tops every bucket back up to perSubarray pages (the paper's
// background maintenance; here only NewAllocCache calls it, on a zone that
// has allocated pages already). Buckets whose sub-array is exhausted are
// skipped — Get then falls back to the allocator's best-effort path.
func (c *AllocCache) Refill() error {
	for key := range c.count {
		for int(c.count[key]) < c.perSubarray {
			idx := c.zone.take(key)
			if idx < 0 {
				break
			}
			c.refilled.push(key, idx)
			c.count[key]++
		}
		if c.count[key] > 0 {
			c.nonEmpty[key>>6] |= 1 << uint(key&63)
		}
	}
	return nil
}

// Release returns a previously allocated page to the zone (e.g. after the
// SKB is consumed); the page becomes available to future refills.
func (c *AllocCache) Release(addr int64) error { return c.zone.FreePage(addr) }
