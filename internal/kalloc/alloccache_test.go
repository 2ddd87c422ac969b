package kalloc

import (
	"fmt"
	"math/rand"
	"testing"

	"netdimm/internal/addrmap"
)

// linearGet is AllocCache.Get as it was before the nonEmpty bitmap: the
// NoHint path scans every bucket's count from the cursor in key order. It
// ignores the bitmap and is the reference the bitmap lookup must match.
func linearGet(c *AllocCache, hint int64) (addr int64, fast bool, err error) {
	if hint != NoHint {
		key, kerr := c.zone.SubarrayKeyOf(hint)
		if kerr != nil {
			return 0, false, kerr
		}
		if c.count(int(key)) > 0 {
			return c.pop(int(key)), true, nil
		}
	} else {
		n := c.zone.Buckets()
		for i := 0; i < n; i++ {
			if key := (c.cursor + i) % n; c.count(key) > 0 {
				c.cursor = (key + 1) % n
				return c.pop(key), true, nil
			}
		}
	}
	c.slow++
	addr, err = c.zone.AllocPageHint(hint)
	return addr, false, err
}

// cachePair drives the bitmap cache and a linear-scan reference through
// the same operations on twin zones, failing on the first divergence.
type cachePair struct {
	t        *testing.T
	got, ref *AllocCache
	held     []int64 // pages handed out and not yet released
}

// newCachePair builds both caches on the smallest NetDIMM zone: one rank,
// addrmap.SubarraysPerRank buckets.
func newCachePair(t *testing.T, perSubarray int) *cachePair {
	t.Helper()
	p := &cachePair{t: t}
	for _, c := range []**AllocCache{&p.got, &p.ref} {
		var err error
		if *c, err = NewAllocCache(NewNetDIMMZone("NET_0", testBase, addrmap.RankBytes), perSubarray); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// hint returns an address in bucket key (not necessarily allocated).
func (p *cachePair) hint(key int) int64 { return p.got.zone.bucketPage(key, 0) }

func (p *cachePair) get(hint int64) {
	p.t.Helper()
	a, fast, err := p.got.Get(hint)
	ra, rfast, rerr := linearGet(p.ref, hint)
	if a != ra || fast != rfast || (err == nil) != (rerr == nil) {
		p.t.Fatalf("Get(%#x) = %#x, %v, %v; linear scan = %#x, %v, %v", hint, a, fast, err, ra, rfast, rerr)
	}
	if p.got.cursor != p.ref.cursor {
		p.t.Fatalf("Get(%#x): cursor %d, linear scan %d", hint, p.got.cursor, p.ref.cursor)
	}
	gh, gs := p.got.Stats()
	rh, rs := p.ref.Stats()
	if gh != rh || gs != rs {
		p.t.Fatalf("Get(%#x): stats %d/%d, linear scan %d/%d", hint, gh, gs, rh, rs)
	}
	if err == nil {
		p.held = append(p.held, a)
	}
}

func (p *cachePair) release(i int) {
	p.t.Helper()
	a := p.held[i]
	p.held[i] = p.held[len(p.held)-1]
	p.held = p.held[:len(p.held)-1]
	if err, rerr := p.got.Release(a), p.ref.Release(a); err != nil || rerr != nil {
		p.t.Fatalf("Release(%#x) = %v, linear scan %v", a, err, rerr)
	}
}

func (p *cachePair) refill() {
	p.t.Helper()
	if err, rerr := p.got.Refill(), p.ref.Refill(); err != nil || rerr != nil {
		p.t.Fatalf("Refill = %v, linear scan %v", err, rerr)
	}
}

// keep empties every bucket not in keep through hinted Gets, leaving
// exactly the keep buckets non-empty.
func (p *cachePair) keep(keep ...int) {
	p.t.Helper()
	kept := make(map[int]bool, len(keep))
	for _, k := range keep {
		kept[k] = true
	}
	for key := 0; key < p.got.zone.Buckets(); key++ {
		for !kept[key] && p.got.count(key) > 0 {
			p.get(p.hint(key))
		}
	}
}

// checkBitmap asserts that bit k of nonEmpty is set exactly while bucket k
// holds a page.
func (p *cachePair) checkBitmap() {
	p.t.Helper()
	checkBitmap(p.t, p.got)
}

// checkBitmap asserts that c's non-empty bitmap and filled count agree with
// its per-bucket counts.
func checkBitmap(t *testing.T, c *AllocCache) {
	t.Helper()
	filled := 0
	for key := 0; key < c.zone.Buckets(); key++ {
		n := c.count(key)
		if set := c.nonEmpty(key>>6)&(1<<uint(key&63)) != 0; set != (n > 0) {
			t.Fatalf("nonEmpty bit %d = %v with %d pages in the bucket", key, set, n)
		}
		if n > 0 {
			filled++
		}
	}
	if filled != c.filled {
		t.Fatalf("filled = %d, %d buckets hold a page", c.filled, filled)
	}
}

// TestAllocCacheBitmapCases pins the NoHint lookup on hand-built bucket
// patterns against the linear scan, draining each pattern to the slow
// path.
func TestAllocCacheBitmapCases(t *testing.T) {
	const n = addrmap.SubarraysPerRank
	cases := []struct {
		name   string
		cursor int
		keep   []int
	}{
		{"cursor mid-word, hits above and below it", 100, []int{70, 99, 101, 127}},
		{"cursor on a non-empty bucket", 37, []int{37}},
		{"only bits below the cursor in its word", 37, []int{0, 36}},
		{"wrap past the last bucket", n - 2, []int{3, n - 1}},
		{"wrap with the last bucket empty", n - 1, []int{64, 5000}},
		{"cursor at the last bucket", n - 1, []int{n - 1}},
		{"fully drained", 37, nil},
	}
	for _, per := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("per=%d/%s", per, tc.name), func(t *testing.T) {
				p := newCachePair(t, per)
				p.keep(tc.keep...)
				p.got.cursor, p.ref.cursor = tc.cursor, tc.cursor
				p.checkBitmap()
				// Every kept page, then two slow-path lookups.
				for i := 0; i < len(tc.keep)*per+2; i++ {
					p.get(NoHint)
				}
				if p.got.PinnedPages() != 0 {
					t.Fatalf("%d pages left in the cache", p.got.PinnedPages())
				}
				p.checkBitmap()
			})
		}
	}
}

// TestAllocCacheBitmapMatchesLinearScan drives random sequences of
// Get(NoHint), hinted Get, Release and Refill through both caches, starting
// from sparse bucket patterns at a random cursor, and requires the same
// page, fast flag, cursor and Stats after every step.
func TestAllocCacheBitmapMatchesLinearScan(t *testing.T) {
	for _, per := range []int{1, 2} {
		// keepFrac is the share of buckets left non-empty before the
		// random walk: a full cache, a sparse one, a near-empty one.
		for _, keepFrac := range []float64{1, 0.05, 0.001} {
			rng := rand.New(rand.NewSource(int64(per)*1000 + int64(keepFrac*1000)))
			p := newCachePair(t, per)
			n := p.got.zone.Buckets()
			var keep []int
			for key := 0; key < n; key++ {
				if rng.Float64() < keepFrac {
					keep = append(keep, key)
				}
			}
			p.keep(keep...)
			cursor := rng.Intn(n)
			p.got.cursor, p.ref.cursor = cursor, cursor
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(100); {
				case op < 55:
					p.get(NoHint)
				case op < 75:
					p.get(p.hint(rng.Intn(n)))
				case op < 85 && len(p.held) > 0:
					p.get(p.held[rng.Intn(len(p.held))])
				case op < 99 && len(p.held) > 0:
					p.release(rng.Intn(len(p.held)))
				case op == 99:
					p.refill()
				}
				if step%500 == 0 {
					p.checkBitmap()
				}
			}
			p.checkBitmap()
		}
	}
}

// receiveCache builds the paper's two-rank NET_0 zone's allocCache, two
// pages per sub-array.
func receiveCache(tb testing.TB) *AllocCache {
	c, err := NewAllocCache(NewNetDIMMZone("NET_0", testBase, 16<<30), 2)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// receive makes one NetDIMM receive's allocations: Get(NoHint), Get(hint)
// on that page, then two Releases. It reports whether the first Get hit
// the cache.
func receive(tb testing.TB, c *AllocCache) (fast bool) {
	a, fast, err := c.Get(NoHint)
	if err != nil {
		tb.Fatal(err)
	}
	p, _, err := c.Get(a)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Release(a); err != nil {
		tb.Fatal(err)
	}
	if err := c.Release(p); err != nil {
		tb.Fatal(err)
	}
	return fast
}

func refill(tb testing.TB, c *AllocCache) {
	if err := c.Refill(); err != nil {
		tb.Fatal(err)
	}
}

// freshCache is receiveCache after one drain-and-refill pass, which sizes
// the zone's free-stack slab and the cache's refilled slab for the pages
// Release and Refill move between them. Each receive empties one bucket,
// so the cache stays fresh for n more receives.
func freshCache(tb testing.TB) (c *AllocCache, n int) {
	c = receiveCache(tb)
	n = c.zone.Buckets()
	for i := 0; i < n; i++ {
		receive(tb, c)
	}
	refill(tb, c)
	return c, n
}

// drainedCache is receiveCache with every bucket emptied, so each further
// receive takes the slow path.
func drainedCache(tb testing.TB) *AllocCache {
	c := receiveCache(tb)
	for receive(tb, c) {
	}
	return c
}

// BenchmarkAllocCacheGet times one receive at the paper's two-rank zone,
// on a full cache and on a drained one. It is the op the host-time
// benchmark's kalloc.get_ns.fresh/drained replay.
func BenchmarkAllocCacheGet(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		c, n := freshCache(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%n == 0 {
				b.StopTimer()
				refill(b, c)
				b.StartTimer()
			}
			receive(b, c)
		}
	})
	b.Run("drained", func(b *testing.B) {
		c := drainedCache(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			receive(b, c)
		}
	})
}

// TestAllocCacheGetAllocs holds BenchmarkAllocCacheGet to zero allocations
// per receive on a fresh cache and on a drained one.
func TestAllocCacheGetAllocs(t *testing.T) {
	c, _ := freshCache(t) // 200 receives leave most of its 16K buckets full
	const runs = 200
	var fast bool
	if avg := testing.AllocsPerRun(runs, func() { fast = receive(t, c) }); avg != 0 || !fast {
		t.Errorf("fresh cache: %v allocs per receive (fast %v), want 0 on the fast path", avg, fast)
	}
	c = drainedCache(t)
	if avg := testing.AllocsPerRun(runs, func() { fast = receive(t, c) }); avg != 0 || fast {
		t.Errorf("drained cache: %v allocs per receive (fast %v), want 0 on the slow path", avg, fast)
	}
}
