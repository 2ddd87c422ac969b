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
// here only construction calls Refill, so the cache is pre-filled once.
// Each NetDIMM receive takes two pages for good (Release returns them to
// the zone, not the cache), so the cache drains after
// Buckets x perSubarray / 2 receives; from then on every Get takes the
// allocator slow path.
type AllocCache struct {
	zone        *Zone
	perSubarray int
	// cache holds each bucket's ready pages, indexed by SubarrayKey —
	// keys are dense in [0, zone.Buckets()), so a slice replaces the
	// hash table the paper names (the affinity lookup is still O(1),
	// now without hashing). All bucket slices share one backing array
	// carved out at construction, so a prefilled cache costs two
	// allocations instead of one per bucket.
	cache [][]int64
	// nonEmpty has bit k set exactly while cache[k] holds a page, so the
	// NoHint lookup skips empty buckets 64 at a time and a drained cache
	// answers after one pass over Buckets()/64 words.
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
// this pins 32K pages = 128MB, 0.8% of a 16GB NetDIMM.
func NewAllocCache(zone *Zone, perSubarray int) (*AllocCache, error) {
	if zone.Kind != ZoneNetDIMM {
		return nil, fmt.Errorf("kalloc: allocCache requires a NetDIMM zone, got %s", zone.Name)
	}
	if perSubarray <= 0 {
		return nil, fmt.Errorf("kalloc: perSubarray must be positive, got %d", perSubarray)
	}
	n := zone.Buckets()
	c := &AllocCache{
		zone:        zone,
		perSubarray: perSubarray,
		cache:       make([][]int64, n),
		nonEmpty:    make([]uint64, (n+63)/64),
	}
	backing := make([]int64, n*perSubarray)
	for k := range c.cache {
		c.cache[k] = backing[k*perSubarray : k*perSubarray : (k+1)*perSubarray]
	}
	if err := c.Refill(); err != nil {
		return nil, err
	}
	return c, nil
}

// PinnedPages returns the number of pages currently held by the cache.
func (c *AllocCache) PinnedPages() int {
	n := 0
	for _, pages := range c.cache {
		n += len(pages)
	}
	return n
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
		if len(c.cache[key]) > 0 {
			return c.pop(int(key)), true, nil
		}
	} else if key := c.nextNonEmpty(); key >= 0 {
		// No affinity requirement: serve from the next non-empty bucket in
		// key order, resuming where the previous no-hint lookup left off.
		c.cursor = (key + 1) % len(c.cache)
		return c.pop(key), true, nil
	}
	// Slow path: __alloc_netdimm_pages directly.
	c.slow++
	addr, err = c.zone.AllocPageHint(hint)
	return addr, false, err
}

// pop takes the last page of non-empty bucket key as a cache hit, clearing
// the bucket's nonEmpty bit along with its last page.
func (c *AllocCache) pop(key int) int64 {
	pages := c.cache[key]
	addr := pages[len(pages)-1]
	c.cache[key] = pages[:len(pages)-1]
	if len(pages) == 1 {
		c.nonEmpty[key>>6] &^= 1 << uint(key&63)
	}
	c.hits++
	return addr
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
// background maintenance; here only NewAllocCache calls it). Buckets whose
// sub-array is exhausted are skipped — Get then falls back to the
// allocator's best-effort path.
func (c *AllocCache) Refill() error {
	for key := 0; key < c.zone.Buckets(); key++ {
		pages := c.cache[key]
		for len(pages) < c.perSubarray {
			addr := c.zone.allocFromBucket(key)
			if addr < 0 {
				break
			}
			c.zone.markAllocated(addr)
			pages = append(pages, addr)
		}
		c.cache[key] = pages
		if len(pages) > 0 {
			c.nonEmpty[key>>6] |= 1 << uint(key&63)
		}
	}
	return nil
}

// Release returns a previously allocated page to the zone (e.g. after the
// SKB is consumed); the page becomes available to future refills.
func (c *AllocCache) Release(addr int64) error { return c.zone.FreePage(addr) }
