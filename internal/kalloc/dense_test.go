package kalloc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"netdimm/internal/addrmap"
)

// denseZone and denseCache are the NetDIMM zone and allocCache as they were
// before the per-bucket representation: a bitmap with one bit per page of
// the whole zone, one freed slice per bucket and one stored address per
// cached page. They are the reference the property tests hold Zone and
// AllocCache to, page for page.
type denseZone struct {
	name       string
	base, size int64
	buckets    []denseBucket
	allocated  []uint64
	allocCount int64
	stats      ZoneStats
}

type denseBucket struct {
	fresh int
	freed []int64
}

func newDenseZone(name string, base, size int64) *denseZone {
	return &denseZone{
		name: name, base: base, size: size,
		buckets:   make([]denseBucket, size/addrmap.RankBytes*addrmap.SubarraysPerRank),
		allocated: make([]uint64, (size/addrmap.PageSize+63)/64),
	}
}

func (z *denseZone) pageBit(addr int64) (word int64, mask uint64) {
	page := (addr - z.base) / addrmap.PageSize
	return page / 64, 1 << uint(page%64)
}

func (z *denseZone) markAllocated(addr int64) {
	w, m := z.pageBit(addr)
	z.allocated[w] |= m
	z.allocCount++
	z.stats.Allocs++
}

func (z *denseZone) contains(phys int64) bool { return phys >= z.base && phys < z.base+z.size }

func (z *denseZone) freePages() int64 { return z.size/addrmap.PageSize - z.allocCount }

func (z *denseZone) allocPageHint(hint int64) (int64, error) {
	var addr int64 = -1
	if hint != NoHint {
		if !z.contains(hint) {
			return 0, fmt.Errorf("hint %#x outside zone", hint)
		}
		addr = z.allocFromBucket(int(addrmap.SubarrayOf(hint - z.base)))
		if addr >= 0 {
			z.stats.HintSatisfied++
		} else {
			z.stats.HintFallback++
		}
	}
	for key := 0; addr < 0 && key < len(z.buckets); key++ {
		addr = z.allocFromBucket(key)
	}
	if addr < 0 {
		z.stats.Failures++
		return 0, fmt.Errorf("zone %s exhausted", z.name)
	}
	z.markAllocated(addr)
	return addr, nil
}

func (z *denseZone) allocFromBucket(key int) int64 {
	b := &z.buckets[key]
	if n := len(b.freed); n > 0 {
		a := b.freed[n-1]
		b.freed = b.freed[:n-1]
		return a
	}
	if b.fresh >= pagesPerBucket {
		return -1
	}
	b.fresh++
	return denseBucketPage(z.base, key, b.fresh-1)
}

func denseBucketPage(base int64, key, idx int) int64 {
	return base + addrmap.EncodeRank(addrmap.Location{
		Rank:     key / addrmap.SubarraysPerRank,
		Bank:     (key / addrmap.SubarraysPerBank) % addrmap.BanksPerRank,
		Subarray: key % addrmap.SubarraysPerBank,
		Row:      idx >> 1,
		Column:   int64(idx&1) << addrmap.PageShift,
	})
}

func (z *denseZone) freePage(addr int64) error {
	if !z.contains(addr) {
		return fmt.Errorf("freeing %#x outside zone", addr)
	}
	if addr%addrmap.PageSize != 0 {
		return fmt.Errorf("freeing unaligned %#x", addr)
	}
	w, m := z.pageBit(addr)
	if z.allocated[w]&m == 0 {
		return fmt.Errorf("double free of %#x", addr)
	}
	z.allocated[w] &^= m
	z.allocCount--
	z.stats.Frees++
	b := &z.buckets[addrmap.SubarrayOf(addr-z.base)]
	b.freed = append(b.freed, addr)
	return nil
}

type denseCache struct {
	zone        *denseZone
	perSubarray int
	cache       [][]int64
	nonEmpty    []uint64
	cursor      int
	hits, slow  uint64
}

func newDenseCache(zone *denseZone, perSubarray int) *denseCache {
	c := &denseCache{
		zone:        zone,
		perSubarray: perSubarray,
		cache:       make([][]int64, len(zone.buckets)),
		nonEmpty:    make([]uint64, (len(zone.buckets)+63)/64),
	}
	c.refill()
	return c
}

func (c *denseCache) pinnedPages() int {
	n := 0
	for _, pages := range c.cache {
		n += len(pages)
	}
	return n
}

func (c *denseCache) get(hint int64) (addr int64, fast bool, err error) {
	if hint != NoHint {
		if !c.zone.contains(hint) {
			return 0, false, fmt.Errorf("%#x outside zone", hint)
		}
		key := int(addrmap.SubarrayOf(hint - c.zone.base))
		if len(c.cache[key]) > 0 {
			return c.pop(key), true, nil
		}
	} else if key := c.nextNonEmpty(); key >= 0 {
		c.cursor = (key + 1) % len(c.cache)
		return c.pop(key), true, nil
	}
	c.slow++
	addr, err = c.zone.allocPageHint(hint)
	return addr, false, err
}

func (c *denseCache) pop(key int) int64 {
	pages := c.cache[key]
	addr := pages[len(pages)-1]
	c.cache[key] = pages[:len(pages)-1]
	if len(pages) == 1 {
		c.nonEmpty[key>>6] &^= 1 << uint(key&63)
	}
	c.hits++
	return addr
}

func (c *denseCache) nextNonEmpty() int {
	words := c.nonEmpty
	w := c.cursor >> 6
	if b := words[w] >> uint(c.cursor&63); b != 0 {
		return c.cursor + bits.TrailingZeros64(b)
	}
	for i := 1; i <= len(words); i++ {
		j := (w + i) % len(words)
		if words[j] != 0 {
			return j<<6 + bits.TrailingZeros64(words[j])
		}
	}
	return -1
}

func (c *denseCache) refill() {
	for key := range c.cache {
		for len(c.cache[key]) < c.perSubarray {
			addr := c.zone.allocFromBucket(key)
			if addr < 0 {
				break
			}
			c.zone.markAllocated(addr)
			c.cache[key] = append(c.cache[key], addr)
		}
		if len(c.cache[key]) > 0 {
			c.nonEmpty[key>>6] |= 1 << uint(key&63)
		}
	}
}

// densePair runs a Zone + AllocCache and the dense reference side by side
// on twin zones, failing on the first divergence.
type densePair struct {
	t    *testing.T
	rng  *rand.Rand
	z    *Zone
	c    *AllocCache
	rz   *denseZone
	rc   *denseCache
	held []int64 // pages handed out and not freed since
	gone []int64 // pages freed since they were handed out
}

func newDensePair(t *testing.T, seed int64, ranks int) *densePair {
	size := int64(ranks) * addrmap.RankBytes
	return &densePair{
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
		z:   NewNetDIMMZone("NET_0", testBase, size),
		rz:  newDenseZone("NET_0", testBase, size),
	}
}

// buildCache builds both caches on the zones as they stand.
func (p *densePair) buildCache(per int) {
	p.t.Helper()
	var err error
	if p.c, err = NewAllocCache(p.z, per); err != nil {
		p.t.Fatal(err)
	}
	p.rc = newDenseCache(p.rz, per)
	p.check("NewAllocCache")
	p.checkContents()
}

// hint returns a random address in the zone: a held page, or any page of a
// random bucket, allocated or not.
func (p *densePair) hint() int64 {
	if len(p.held) > 0 && p.rng.Intn(2) == 0 {
		return p.held[p.rng.Intn(len(p.held))]
	}
	return p.z.bucketPage(p.rng.Intn(p.z.Buckets()), p.rng.Intn(pagesPerBucket))
}

func (p *densePair) result(op string, a, ra int64, err, rerr error) {
	p.t.Helper()
	if a != ra || (err == nil) != (rerr == nil) {
		p.t.Fatalf("%s = %#x, %v; reference %#x, %v", op, a, err, ra, rerr)
	}
	if err == nil {
		p.held = append(p.held, a)
	}
}

// get is Get on both caches; before they are built it is AllocPageHint.
func (p *densePair) get(hint int64) {
	p.t.Helper()
	if p.c == nil {
		p.alloc(hint)
		return
	}
	a, fast, err := p.c.Get(hint)
	ra, rfast, rerr := p.rc.get(hint)
	op := fmt.Sprintf("Get(%#x)", hint)
	if fast != rfast {
		p.t.Fatalf("%s fast = %v, reference %v", op, fast, rfast)
	}
	p.result(op, a, ra, err, rerr)
}

func (p *densePair) alloc(hint int64) {
	p.t.Helper()
	a, err := p.z.AllocPageHint(hint)
	ra, rerr := p.rz.allocPageHint(hint)
	p.result(fmt.Sprintf("AllocPageHint(%#x)", hint), a, ra, err, rerr)
}

// free frees addr through the cache, once built, or the zone; wantOK says
// whether the free is legal, so a wrongly accepted or rejected free fails
// even when both sides agree.
func (p *densePair) free(addr int64, viaCache, wantOK bool) {
	p.t.Helper()
	var err error
	if viaCache && p.c != nil {
		err = p.c.Release(addr)
	} else {
		err = p.z.FreePage(addr)
	}
	rerr := p.rz.freePage(addr)
	if (err == nil) != (rerr == nil) || (err == nil) != wantOK {
		p.t.Fatalf("free(%#x) = %v, reference %v, want ok %v", addr, err, rerr, wantOK)
	}
}

func (p *densePair) freeHeld(viaCache bool) {
	p.t.Helper()
	i := p.rng.Intn(len(p.held))
	a := p.held[i]
	p.held[i] = p.held[len(p.held)-1]
	p.held = p.held[:len(p.held)-1]
	p.free(a, viaCache, true)
	p.gone = append(p.gone, a)
}

// check compares everything observable except the cache contents.
func (p *densePair) check(op string) {
	p.t.Helper()
	if p.z.Stats() != p.rz.stats {
		p.t.Fatalf("after %s: ZoneStats %+v, reference %+v", op, p.z.Stats(), p.rz.stats)
	}
	if p.z.FreePages() != p.rz.freePages() {
		p.t.Fatalf("after %s: FreePages %d, reference %d", op, p.z.FreePages(), p.rz.freePages())
	}
	if p.c == nil {
		return
	}
	if p.c.cursor != p.rc.cursor {
		p.t.Fatalf("after %s: cursor %d, reference %d", op, p.c.cursor, p.rc.cursor)
	}
	if h, s := p.c.Stats(); h != p.rc.hits || s != p.rc.slow {
		p.t.Fatalf("after %s: Stats %d/%d, reference %d/%d", op, h, s, p.rc.hits, p.rc.slow)
	}
	if p.c.PinnedPages() != p.rc.pinnedPages() {
		p.t.Fatalf("after %s: PinnedPages %d, reference %d", op, p.c.PinnedPages(), p.rc.pinnedPages())
	}
}

// checkContents requires every bucket to hold the same pages in the same
// order as the reference, bottom to top.
func (p *densePair) checkContents() {
	p.t.Helper()
	for key, want := range p.rc.cache {
		var top []int64
		for n := p.c.refilled.head(key); n != 0; n = p.c.refilled.node(n).next {
			top = append(top, p.z.bucketPage(key, int(p.c.refilled.node(n).idx)))
		}
		got := make([]int64, 0, p.c.count(key))
		for i := 0; i < p.c.count(key)-len(top); i++ {
			got = append(got, p.z.bucketPage(key, i))
		}
		for i := len(top) - 1; i >= 0; i-- {
			got = append(got, top[i])
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			p.t.Fatalf("bucket %d holds %#x, reference %#x", key, got, want)
		}
	}
	checkBitmap(p.t, p.c)
}

// unowned reports whether page a is neither held nor in the reference
// cache, so freeing it must fail.
func (p *densePair) unowned(a int64) bool {
	for _, h := range p.held {
		if h == a {
			return false
		}
	}
	if p.rc != nil {
		for _, c := range p.rc.cache[addrmap.SubarrayOf(a-p.z.Base)] {
			if c == a {
				return false
			}
		}
	}
	return true
}

// step applies one random operation to both sides.
func (p *densePair) step() {
	p.t.Helper()
	op := p.rng.Intn(100)
	switch {
	case op < 30:
		p.get(NoHint)
	case op < 45:
		p.get(p.hint())
	case op < 47:
		p.get(testBase - addrmap.PageSize) // foreign hint: an error
	case op < 62 && len(p.held) > 0:
		p.freeHeld(true)
	case op < 70 && len(p.held) > 0:
		p.freeHeld(false)
	case op < 76:
		p.alloc(NoHint)
	case op < 82:
		p.alloc(p.hint())
	case op < 85 && len(p.gone) > 0:
		// A page freed earlier: a double free unless it was handed out
		// again since.
		if a := p.gone[p.rng.Intn(len(p.gone))]; p.unowned(a) {
			p.free(a, p.rng.Intn(2) == 0, false)
		}
	case op < 87:
		p.free(p.z.Base+p.z.Size, false, false) // foreign
	case op < 89 && len(p.held) > 0:
		p.free(p.held[p.rng.Intn(len(p.held))]+64, true, false) // unaligned
	case op < 91:
		// The last page of a random bucket: never allocated unless the
		// bucket was filled.
		if a := p.z.bucketPage(p.rng.Intn(p.z.Buckets()), pagesPerBucket-1); p.unowned(a) {
			p.free(a, false, false)
		}
	case op < 92 && p.c != nil:
		p.c.Refill()
		p.rc.refill()
	}
}

// drain empties most of both caches through Get(NoHint), then frees half
// of the held pages, so the walk reaches drained buckets and long free
// stacks.
func (p *densePair) drain() {
	p.t.Helper()
	for n := p.rc.pinnedPages() - p.rng.Intn(64); n > 0; n-- {
		a, fast, err := p.c.Get(NoHint)
		ra, rfast, rerr := p.rc.get(NoHint)
		if fast != rfast || p.c.cursor != p.rc.cursor {
			p.t.Fatalf("drain Get(NoHint) fast %v cursor %d; reference %v %d", fast, p.c.cursor, rfast, p.rc.cursor)
		}
		p.result("drain Get(NoHint)", a, ra, err, rerr)
	}
	for i := len(p.held) / 2; i > 0; i-- {
		p.freeHeld(true)
	}
	p.check("drain")
	p.checkContents()
}

// TestAllocCacheMatchesDenseReference drives random sequences of Get,
// Release, Refill, AllocPageHint and FreePage — double, foreign, unaligned
// and never-allocated frees included — through Zone + AllocCache and the
// dense reference on 1- and 2-rank zones with 1 to 3 pages per bucket,
// with and without pages allocated before the cache is built. After every
// step the page, fast flag, error-ness, cursor, Stats, ZoneStats,
// FreePages and PinnedPages must match; every bucket's contents must match
// at checkpoints.
func TestAllocCacheMatchesDenseReference(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	for _, ranks := range []int{1, 2} {
		for per := 1; per <= 3; per++ {
			for _, before := range []int{0, 200} {
				t.Run(fmt.Sprintf("ranks=%d/per=%d/before=%d", ranks, per, before), func(t *testing.T) {
					p := newDensePair(t, int64(ranks*100+per*10+before), ranks)
					for i := 0; i < before; i++ {
						p.step()
						p.check("a zone step before the cache")
					}
					p.buildCache(per)
					for i := 0; i < steps; i++ {
						if i == steps/2 {
							p.drain()
						}
						p.step()
						p.check("a step")
						if i%500 == 0 {
							p.checkContents()
						}
					}
					p.checkContents()
				})
			}
		}
	}
}

// fullDrain empties both caches through Get(NoHint), then takes a few
// more pages from the drained caches, which must all be slow-path.
func (p *densePair) fullDrain() {
	p.t.Helper()
	for n := p.rc.pinnedPages(); n > 0; n-- {
		p.get(NoHint)
	}
	if p.c.PinnedPages() != 0 || p.c.filled != 0 {
		p.t.Fatalf("drained cache pins %d pages in %d filled buckets", p.c.PinnedPages(), p.c.filled)
	}
	_, slow := p.c.Stats()
	for i := 0; i < 8; i++ {
		p.get(NoHint)
		p.get(p.hint())
	}
	if _, s := p.c.Stats(); s != slow+16 {
		p.t.Fatalf("%d of 16 gets on a drained cache took the slow path", s-slow)
	}
	p.check("full drain")
	p.checkContents()
}

// TestAllocCacheLazyChunksMatchDenseReference holds the lazy per-chunk
// state to the dense reference from a never-touched cache: building it
// makes no chunk, then the first touch of every chunk (a hinted Get, a
// zone allocation and a free in each, chunks in random order), a full
// drain to the slow path, frees and a Refill on the used zone, and a
// random walk after it.
func TestAllocCacheLazyChunksMatchDenseReference(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		for _, per := range []int{1, 2} {
			t.Run(fmt.Sprintf("ranks=%d/per=%d", ranks, per), func(t *testing.T) {
				p := newDensePair(t, int64(ranks*10+per), ranks)
				p.buildCache(per)
				if len(p.c.chunks) != 0 || len(p.z.past) != 0 || len(p.z.freed.top) != 0 {
					t.Fatalf("a fresh cache made chunks: cache %d, zone %d, free stacks %d",
						len(p.c.chunks), len(p.z.past), len(p.z.freed.top))
				}
				for _, c := range p.rng.Perm(p.z.Buckets() / chunk) {
					bucket := func() int64 {
						return p.z.bucketPage(c*chunk+p.rng.Intn(chunk), p.rng.Intn(pagesPerBucket))
					}
					p.get(bucket())
					p.alloc(bucket())
					p.freeHeld(p.rng.Intn(2) == 0)
					p.check("a first touch")
				}
				p.checkContents()
				p.fullDrain()
				for i := len(p.held) / 2; i > 0; i-- {
					p.freeHeld(true)
				}
				if err := p.c.Refill(); err != nil {
					t.Fatal(err)
				}
				p.rc.refill()
				p.check("Refill on a used zone")
				p.checkContents()
				for i := 0; i < 500; i++ {
					p.step()
					p.check("a step")
				}
				p.checkContents()
			})
		}
	}
}
