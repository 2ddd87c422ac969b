// Package kalloc models the Linux kernel physical-page allocator as the
// paper extends it: the per-NetDIMM NET_i memory zones, the
// __alloc_netdimm_pages(zone, hint) API that allocates a page in the same
// bank sub-array as a hint address, and the allocCache pre-allocation hash
// table the NetDIMM driver uses to keep DMA-buffer allocation off the
// packet critical path (paper Sec. 4.2.1 and 4.2.2).
// Per-bucket state is made a chunk of buckets at a time on first use, so
// building a zone and its prefilled allocCache costs the same at any size.
package kalloc

import (
	"fmt"
	"math/bits"

	"netdimm/internal/addrmap"
)

// NoHint requests a page with no sub-array affinity — the paper's
// __alloc_netdimm_pages(zone, -1).
const NoHint int64 = -1

// Zone is a NET_i zone: the local DRAM of one NetDIMM, organised by
// (rank, bank, sub-array) bucket for affine page allocation.
//
// Its state is per bucket, never per page. A bucket hands out its pages
// in index order (index row*2 + half, see bucketPage) and recycles freed
// ones LIFO, so a page is allocated exactly while its index is below the
// bucket's fresh count and it is not on the bucket's free stack.
type Zone struct {
	Name string
	Base int64 // first physical address
	Size int64

	// Bucket k's fresh count is floor, the pages the allocCache prefill
	// took from every bucket at once, plus past[k].
	floor uint16
	past  lazy[[chunk]uint16]
	// freed holds each bucket's freed pages, reused before fresh ones.
	freed      pageStacks
	allocCount int64
	stats      ZoneStats
}

// ZoneStats counts allocator events.
type ZoneStats struct {
	Allocs        uint64
	Frees         uint64
	HintSatisfied uint64
	HintFallback  uint64 // hint given but the sub-array was exhausted
	Failures      uint64
}

// pagesPerBucket is the number of 4KB pages per (bank, sub-array) pair:
// 128 rows x 2 half-row pages.
const pagesPerBucket = addrmap.RowsPerSubarray * 2

// NewNetDIMMZone returns a NET_i zone over the NetDIMM's local memory. The
// size must be a whole number of 8GB ranks (paper Fig. 9a geometry).
func NewNetDIMMZone(name string, base, size int64) *Zone {
	if base%addrmap.PageSize != 0 || size <= 0 || size%addrmap.PageSize != 0 {
		panic(fmt.Sprintf("kalloc: zone base %#x / size %#x not page aligned", base, size))
	}
	if size%addrmap.RankBytes != 0 {
		panic(fmt.Sprintf("kalloc: NetDIMM zone size %d not a multiple of the 8GB rank", size))
	}
	return &Zone{Name: name, Base: base, Size: size}
}

// Stats returns a copy of the zone statistics.
func (z *Zone) Stats() ZoneStats { return z.stats }

// Contains reports whether the physical address belongs to the zone.
func (z *Zone) Contains(phys int64) bool { return phys >= z.Base && phys < z.Base+z.Size }

// AllocPage allocates one page with no affinity requirement. It returns the
// physical address of the page.
func (z *Zone) AllocPage() (int64, error) {
	return z.AllocPageHint(NoHint)
}

// AllocPageHint implements __alloc_netdimm_pages(zone, hint): it allocates
// one page, preferring the same (rank, bank, sub-array) as the hint
// address. The API is best effort (paper Sec. 4.2.1): when the hinted
// sub-array has no free page, any free page in the zone is returned.
func (z *Zone) AllocPageHint(hint int64) (int64, error) {
	key, idx := 0, -1
	if hint != NoHint {
		if !z.Contains(hint) {
			return 0, fmt.Errorf("kalloc: hint %#x outside zone %s", hint, z.Name)
		}
		key = int(addrmap.SubarrayOf(hint - z.Base))
		if idx = z.take(key); idx >= 0 {
			z.stats.HintSatisfied++
		} else {
			z.stats.HintFallback++
		}
	}
	for k := 0; idx < 0 && k < z.Buckets(); k++ {
		key, idx = k, z.take(k)
	}
	if idx < 0 {
		z.stats.Failures++
		return 0, fmt.Errorf("kalloc: zone %s exhausted", z.Name)
	}
	return z.bucketPage(key, idx), nil
}

// take allocates a page of bucket key, the last freed one first, and
// returns its in-bucket index, or -1 when the bucket is exhausted.
// AllocPageHint and Refill share it.
func (z *Zone) take(key int) int {
	idx, ok := z.freed.pop(key)
	if !ok {
		if idx = z.fresh(key); idx >= pagesPerBucket {
			return -1
		}
		z.past.make(key)[key%chunk]++
	}
	z.allocCount++
	z.stats.Allocs++
	return idx
}

// fresh returns the index of bucket key's next never-allocated page.
func (z *Zone) fresh(key int) int {
	n := int(z.floor)
	if c := z.past.peek(key); c != nil {
		n += int(c[key%chunk])
	}
	return n
}

// bucketPage computes the physical address of page idx within bucket key,
// inverting the SubarrayKey layout: key = (rank*16 + bank)*512 + subarray.
func (z *Zone) bucketPage(key, idx int) int64 {
	k, i := uint(key), uint(idx)
	return z.Base + addrmap.EncodeRank(addrmap.Location{
		Rank:     int(k / addrmap.SubarraysPerRank),
		Bank:     int(k / addrmap.SubarraysPerBank % addrmap.BanksPerRank),
		Subarray: int(k % addrmap.SubarraysPerBank),
		Row:      int(i >> 1),
		Column:   int64(i&1) << addrmap.PageShift,
	})
}

// locate returns the bucket and in-bucket index of a page of the zone.
func (z *Zone) locate(addr int64) (key, idx int) {
	return int(addrmap.SubarrayOf(addr - z.Base)), addrmap.PageIndex(addr - z.Base)
}

// FreePage returns a page to the zone. Double frees, foreign and unaligned
// addresses are reported as errors.
func (z *Zone) FreePage(addr int64) error {
	if !z.Contains(addr) {
		return fmt.Errorf("kalloc: freeing %#x outside zone %s", addr, z.Name)
	}
	if addr%addrmap.PageSize != 0 {
		return fmt.Errorf("kalloc: freeing unaligned address %#x", addr)
	}
	key, idx := z.locate(addr)
	if idx >= z.fresh(key) || z.freed.contains(key, idx) {
		return fmt.Errorf("kalloc: double free of %#x in zone %s", addr, z.Name)
	}
	z.freed.push(key, idx)
	z.allocCount--
	z.stats.Frees++
	return nil
}

// SubarrayKeyOf returns the allocCache bucket key of a physical address in
// the zone.
func (z *Zone) SubarrayKeyOf(phys int64) (addrmap.SubarrayKey, error) {
	if !z.Contains(phys) {
		return 0, fmt.Errorf("kalloc: %#x outside zone %s", phys, z.Name)
	}
	return addrmap.SubarrayOf(phys - z.Base), nil
}

// Buckets returns the number of (rank, bank, sub-array) buckets — 8K per
// rank (paper Sec. 4.2.2).
func (z *Zone) Buckets() int { return int(z.Size / addrmap.RankBytes * addrmap.SubarraysPerRank) }

// lazy is a per-bucket table made one chunk of buckets at a time, on the
// chunk's first write; a bucket of a chunk not made reads as the zero C.
// An RX path walks the buckets after its cursor, making a chunk or two.
type lazy[C any] []*C

// chunk is how many buckets one chunk of a lazy table covers.
const chunk = 256

// peek returns the chunk holding bucket key, nil when it is not made.
func (l lazy[C]) peek(key int) *C {
	if c := key / chunk; c < len(l) {
		return l[c]
	}
	return nil
}

// make returns the chunk holding bucket key, making it zeroed if needed.
func (l *lazy[C]) make(key int) *C {
	c := key / chunk
	for c >= len(*l) {
		*l = append(*l, nil)
	}
	if (*l)[c] == nil {
		(*l)[c] = new(C)
	}
	return (*l)[c]
}

// pageStacks is one LIFO stack of in-bucket page indices per bucket, all
// threaded through one shared node slab. Nothing is allocated until the
// first push, the per-bucket tops are a lazy table, and popped nodes are
// recycled, so a stack costs only the pages on it and the chunks its
// pushes touched. A receiver frees two pages a packet to its zone, so the
// slab grows for as long as a cell runs; it grows by segments of doubling
// size that never move, so growth copies nothing and leaves no garbage.
type pageStacks struct {
	top lazy[[chunk]int32] // per bucket, the slab index of its top node, 0 when empty
	// segs[k] holds nodes [8<<k - 8, 16<<k - 8); node 0 is the nil link
	// and holds no page.
	segs  [][]pageNode
	nodes int32 // nodes made, the nil link included
	idle  int32 // first recycled node, 0 when none
}

type pageNode struct {
	next int32  // the node below, 0 at the bottom of the stack
	idx  uint16 // in-bucket page index
}

// head returns the slab index of bucket key's top node, 0 when the stack
// is empty.
func (s *pageStacks) head(key int) int32 {
	if c := s.top.peek(key); c != nil {
		return c[key%chunk]
	}
	return 0
}

// node returns slab node n: n+8 lies in [8<<k, 16<<k) for segment k.
func (s *pageStacks) node(n int32) *pageNode {
	k := bits.Len32(uint32(n+8)>>3) - 1
	return &s.segs[k][n+8-8<<k]
}

// push puts page idx on bucket key's stack.
func (s *pageStacks) push(key, idx int) {
	top := &s.top.make(key)[key%chunk]
	n := s.idle
	if n != 0 {
		s.idle = s.node(n).next
	} else {
		n = max(s.nodes, 1) // node 0 is the nil link
		if n+8 >= 8<<len(s.segs) {
			s.segs = append(s.segs, make([]pageNode, 8<<len(s.segs)))
		}
		s.nodes = n + 1
	}
	*s.node(n) = pageNode{next: *top, idx: uint16(idx)}
	*top = n
}

// pop removes and returns the top page of bucket key's stack.
func (s *pageStacks) pop(key int) (idx int, ok bool) {
	n := s.head(key)
	if n == 0 {
		return 0, false
	}
	node := s.node(n)
	s.top.peek(key)[key%chunk] = node.next
	idx = int(node.idx)
	node.next = s.idle
	s.idle = n
	return idx, true
}

// contains reports whether page idx is on bucket key's stack. A stack
// never holds more than pagesPerBucket pages.
func (s *pageStacks) contains(key, idx int) bool {
	for n := s.head(key); n != 0; {
		node := s.node(n)
		if int(node.idx) == idx {
			return true
		}
		n = node.next
	}
	return false
}
