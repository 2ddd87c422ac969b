package kalloc

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"netdimm/internal/addrmap"
)

const testBase = int64(16) << 30

func netZone(t *testing.T) *Zone {
	t.Helper()
	return NewNetDIMMZone("NET_0", testBase, 16<<30)
}

// rankZone is the smallest NetDIMM zone: one rank, SubarraysPerRank
// buckets.
func rankZone() *Zone { return NewNetDIMMZone("NET_0", testBase, addrmap.RankBytes) }

func TestZoneAllocFree(t *testing.T) {
	z := netZone(t)
	a, err := z.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	b, err := z.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("double allocation")
	}
	if err := z.FreePage(a); err != nil {
		t.Fatal(err)
	}
	c, err := z.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("freed page not recycled: got %#x want %#x", c, a)
	}
}

// TestZoneExhaustion fills every page of a one-rank zone through hinted
// allocations, then requires the unhinted allocator to fail once, and a
// freed page to be the only one it can hand out again.
func TestZoneExhaustion(t *testing.T) {
	z := rankZone()
	for key := 0; key < z.Buckets(); key++ {
		hint := z.bucketPage(key, 0)
		for i := 0; i < pagesPerBucket; i++ {
			if _, err := z.AllocPageHint(hint); err != nil {
				t.Fatalf("bucket %d page %d: %v", key, i, err)
			}
		}
	}
	if z.FreePages() != 0 {
		t.Fatalf("FreePages = %d after filling the zone", z.FreePages())
	}
	if _, err := z.AllocPage(); err == nil {
		t.Fatal("exhausted zone allocated")
	}
	if st := z.Stats(); st.Failures != 1 || st.HintFallback != 0 {
		t.Fatalf("Failures = %d, HintFallback = %d", st.Failures, st.HintFallback)
	}
	last := z.bucketPage(z.Buckets()-1, pagesPerBucket-1)
	if err := z.FreePage(last); err != nil {
		t.Fatal(err)
	}
	if p, err := z.AllocPageHint(z.bucketPage(0, 0)); err != nil || p != last {
		t.Fatalf("refill after one free = %#x, %v; want %#x", p, err, last)
	}
	if z.Stats().HintFallback != 1 {
		t.Fatalf("HintFallback = %d", z.Stats().HintFallback)
	}
}

func TestFreeErrors(t *testing.T) {
	z := netZone(t)
	a, _ := z.AllocPage()
	if err := z.FreePage(a + 1); err == nil {
		t.Error("unaligned free accepted")
	}
	if err := z.FreePage(z.Base + z.Size); err == nil {
		t.Error("foreign free accepted")
	}
	if err := z.FreePage(z.bucketPage(0, 1)); err == nil {
		t.Error("free of a never-allocated page accepted")
	}
	if err := z.FreePage(a); err != nil {
		t.Error(err)
	}
	if err := z.FreePage(a); err == nil {
		t.Error("double free accepted")
	}
}

func TestNetDIMMZoneGeometry(t *testing.T) {
	z := netZone(t)
	// Two 8GB ranks -> 16K buckets (paper: 8K distinct sub-arrays per rank).
	if z.Buckets() != 2*addrmap.SubarraysPerRank {
		t.Fatalf("buckets = %d, want %d", z.Buckets(), 2*addrmap.SubarraysPerRank)
	}
	if z.FreePages() != (16<<30)/addrmap.PageSize {
		t.Fatalf("FreePages = %d", z.FreePages())
	}
}

func TestHintAllocationAffinity(t *testing.T) {
	z := netZone(t)
	first, err := z.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p, err := z.AllocPageHint(first)
		if err != nil {
			t.Fatal(err)
		}
		if !addrmap.SameSubarray(first-z.Base, p-z.Base) {
			t.Fatalf("hinted page %#x not in hint's sub-array", p)
		}
	}
	if z.Stats().HintSatisfied != 50 {
		t.Fatalf("HintSatisfied = %d", z.Stats().HintSatisfied)
	}
}

func TestHintFallbackWhenSubarrayFull(t *testing.T) {
	z := netZone(t)
	first, _ := z.AllocPage()
	// Exhaust the hinted sub-array: 256 pages per bucket.
	for i := 0; i < pagesPerBucket-1; i++ {
		if _, err := z.AllocPageHint(first); err != nil {
			t.Fatal(err)
		}
	}
	// Next hinted allocation must fall back, not fail (best-effort API).
	p, err := z.AllocPageHint(first)
	if err != nil {
		t.Fatal(err)
	}
	if addrmap.SameSubarray(first-z.Base, p-z.Base) {
		t.Fatal("sub-array should be exhausted")
	}
	if z.Stats().HintFallback != 1 {
		t.Fatalf("HintFallback = %d", z.Stats().HintFallback)
	}
}

func TestHintOutsideZone(t *testing.T) {
	z := netZone(t)
	if _, err := z.AllocPageHint(42); err == nil {
		t.Fatal("foreign hint accepted")
	}
}

// Property: the allocator never hands out the same page twice while it is
// allocated, and every page lies inside the zone, page-aligned.
func TestNoDoubleAllocationProperty(t *testing.T) {
	z := netZone(t)
	seen := make(map[int64]bool)
	var handles []int64
	f := func(op uint8, pick uint8) bool {
		if op%4 != 0 || len(handles) == 0 {
			hint := NoHint
			if len(handles) > 0 && op%2 == 0 {
				hint = handles[int(pick)%len(handles)]
			}
			p, err := z.AllocPageHint(hint)
			if err != nil {
				return true // exhaustion is legal
			}
			if seen[p] || !z.Contains(p) || p%addrmap.PageSize != 0 {
				return false
			}
			seen[p] = true
			handles = append(handles, p)
		} else {
			i := int(pick) % len(handles)
			p := handles[i]
			handles = append(handles[:i], handles[i+1:]...)
			if err := z.FreePage(p); err != nil {
				return false
			}
			delete(seen, p)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketPageRoundTrip(t *testing.T) {
	z := netZone(t)
	// Every bucket's first page must map back to that bucket's key.
	for key := 0; key < z.Buckets(); key += 97 {
		p := z.bucketPage(key, 0)
		got, err := z.SubarrayKeyOf(p)
		if err != nil {
			t.Fatal(err)
		}
		if int(got) != key {
			t.Fatalf("bucket %d page maps to key %d", key, got)
		}
	}
	// And distinct page indices within a bucket are distinct addresses.
	seen := make(map[int64]bool)
	for idx := 0; idx < pagesPerBucket; idx++ {
		p := z.bucketPage(5, idx)
		if seen[p] {
			t.Fatalf("bucket page %d duplicates address %#x", idx, p)
		}
		seen[p] = true
		if k, _ := z.SubarrayKeyOf(p); k != 5 {
			t.Fatalf("page %d of bucket 5 maps to key %d", idx, k)
		}
	}
}

func TestAllocCachePrefill(t *testing.T) {
	z := netZone(t)
	c, err := NewAllocCache(z, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Sec. 4.2.2: two ranks -> 32K pre-allocated pages (128MB, 0.8%
	// of 16GB).
	if got := c.PinnedPages(); got != 32768 {
		t.Fatalf("PinnedPages = %d, want 32768", got)
	}
	pinnedBytes := int64(c.PinnedPages()) * addrmap.PageSize
	overheadPct := float64(pinnedBytes) / float64(16<<30) * 100
	if overheadPct < 0.7 || overheadPct > 0.9 {
		t.Fatalf("capacity overhead = %.2f%%, want ~0.8%%", overheadPct)
	}
}

func TestAllocCacheFastPath(t *testing.T) {
	z := netZone(t)
	c, _ := NewAllocCache(z, 2)
	app, _ := z.AllocPage() // an application buffer somewhere in the zone

	p, fast, err := c.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	if !fast {
		t.Fatal("prefilled cache should serve the fast path")
	}
	if !addrmap.SameSubarray(app-z.Base, p-z.Base) {
		t.Fatal("fast-path page not sub-array affine")
	}
	hits, slow := c.Stats()
	if hits != 1 || slow != 0 {
		t.Fatalf("stats = %d/%d", hits, slow)
	}
}

func TestAllocCacheSlowPathAndRefill(t *testing.T) {
	z := netZone(t)
	c, _ := NewAllocCache(z, 2)
	app, _ := z.AllocPage()

	// Drain the bucket (2 pages), then hit the slow path.
	c.Get(app)
	c.Get(app)
	_, fast, err := c.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	if fast {
		t.Fatal("drained bucket should use the slow path")
	}
	_, slow := c.Stats()
	if slow != 1 {
		t.Fatalf("slow = %d", slow)
	}
	// Background refill restores the fast path.
	if err := c.Refill(); err != nil {
		t.Fatal(err)
	}
	_, fast, err = c.Get(app)
	if err != nil || !fast {
		t.Fatalf("post-refill Get fast=%v err=%v", fast, err)
	}
}

func TestAllocCacheNoHint(t *testing.T) {
	z := netZone(t)
	c, _ := NewAllocCache(z, 1)
	p, fast, err := c.Get(NoHint)
	if err != nil || !fast {
		t.Fatalf("NoHint Get fast=%v err=%v", fast, err)
	}
	if !z.Contains(p) {
		t.Fatal("page outside zone")
	}
}

func TestAllocCacheRelease(t *testing.T) {
	z := netZone(t)
	c, _ := NewAllocCache(z, 1)
	p, _, _ := c.Get(NoHint)
	if err := c.Release(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(p); err == nil {
		t.Fatal("double release accepted")
	}
}

// TestAllocCacheRejectsBadPerSubarray: a bucket holds pagesPerBucket
// pages, so perSubarray must lie in [1, pagesPerBucket]; the bounds
// themselves build.
func TestAllocCacheRejectsBadPerSubarray(t *testing.T) {
	for _, per := range []int{-1, 0, pagesPerBucket + 1, 1 << 16} {
		_, err := NewAllocCache(rankZone(), per)
		if err == nil {
			t.Fatalf("perSubarray %d accepted", per)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("[1, %d]", pagesPerBucket)) {
			t.Errorf("perSubarray %d: error %q does not name the valid range", per, err)
		}
	}
	for _, per := range []int{1, pagesPerBucket} {
		z := rankZone()
		c, err := NewAllocCache(z, per)
		if err != nil {
			t.Fatalf("perSubarray %d: %v", per, err)
		}
		if got, want := c.PinnedPages(), per*z.Buckets(); got != want {
			t.Fatalf("perSubarray %d: PinnedPages = %d, want %d", per, got, want)
		}
	}
}

func TestZonePanicsOnBadGeometry(t *testing.T) {
	cases := []func(){
		func() { NewNetDIMMZone("x", 1, addrmap.RankBytes) }, // unaligned base
		func() { NewNetDIMMZone("x", 0, 100) },               // unaligned size
		func() { NewNetDIMMZone("x", 0, 0) },                 // empty
		func() { NewNetDIMMZone("x", 0, 1<<20) },             // not a rank multiple
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad geometry accepted", i)
				}
			}()
			fn()
		}()
	}
}

// pageStacks keeps each bucket's pages LIFO across the slab's segment
// boundaries, recycles popped nodes and finds exactly the pages on a
// stack.
func TestPageStacksAcrossSegments(t *testing.T) {
	var s pageStacks
	ref := map[int][]int{}
	r := uint64(1)
	for step := 0; step < 5000; step++ {
		r = r*6364136223846793005 + 1442695040888963407
		key := int(r>>33) % 3 * 300 // three buckets in two chunks
		if r>>62 != 0 && len(ref[key]) < pagesPerBucket {
			idx := int(r>>40) % pagesPerBucket
			s.push(key, idx)
			ref[key] = append(ref[key], idx)
		} else {
			idx, ok := s.pop(key)
			if want := ref[key]; ok != (len(want) > 0) || ok && idx != want[len(want)-1] {
				t.Fatalf("step %d: pop(%d) = %d, %v; reference stack %v", step, key, idx, ok, want)
			}
			if ok {
				ref[key] = ref[key][:len(ref[key])-1]
			}
		}
		for _, idx := range []int{0, int(r>>20) % pagesPerBucket} {
			on := false
			for _, p := range ref[key] {
				on = on || p == idx
			}
			if s.contains(key, idx) != on {
				t.Fatalf("step %d: contains(%d, %d) = %v, want %v", step, key, idx, !on, on)
			}
		}
	}
	if s.nodes < 100 {
		t.Fatalf("the stream made only %d nodes: it crossed too few segments", s.nodes)
	}
}
