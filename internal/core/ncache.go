// Package core implements the NetDIMM buffer device — the paper's primary
// contribution (Sec. 4.1, Fig. 6a): the nController that arbitrates
// between the nNIC and the DDR5 PHY, the nCache consume-on-read SRAM
// buffer (its lines made on first use), the next-line nPrefetcher, the nMC
// local memory controller binding, and the in-memory clone engine, all
// exposed to the host over the NVDIMM-P asynchronous protocol.
package core

import (
	"fmt"
	"math/bits"

	"netdimm/internal/addrmap"
	"netdimm/internal/sim"
)

// NCacheStats counts nCache events.
type NCacheStats struct {
	Hits, Misses   uint64
	HeaderHits     uint64
	Inserts        uint64
	Replacements   uint64 // random-replacement victims
	Consumed       uint64 // lines removed by consume-on-read
	Invalidations  uint64 // snooped writes that matched
	PrefetchFills  uint64
	PrefetchUseful uint64 // prefetched lines later hit
}

type nline struct {
	tag      int64
	valid    bool
	header   bool // set for the first cacheline of a newly arrived packet
	prefetch bool // filled by the nPrefetcher
}

// NCache is the dual-port SRAM buffer of the NetDIMM buffer device. It is
// an inclusive set-associative structure, but behaves as a streaming
// buffer: a read hit removes the line (the RX data moves on to the host
// and "is unlikely to be accessed in a near future"), all lines are clean,
// and replacement is random (paper Sec. 4.1).
type NCache struct {
	ways int
	// lines holds set s's ways at [s*ways, (s+1)*ways); the first Insert
	// makes it, and until then every lookup misses.
	lines    []nline
	setShift uint // log2 of the set count
	valid    int  // valid lines, so a snoop of an empty cache costs nothing
	// lo and hi bound the line indices (address / CachelineSize) of every
	// line inserted since the cache was last empty, so every valid line
	// lies in [lo, hi] and a snoop probes only that span.
	lo, hi int64
	rng    *sim.Rand
	stats  NCacheStats
}

// NewNCache builds an nCache with the given total line count and
// associativity; the set count lines/ways must be a power of two.
// Replacement randomness is seeded deterministically.
func NewNCache(lines, ways int, seed uint64) *NCache {
	if lines <= 0 || ways <= 0 || lines%ways != 0 || bits.OnesCount(uint(lines/ways)) != 1 {
		panic(fmt.Sprintf("core: bad nCache geometry lines=%d ways=%d: want a power-of-two set count", lines, ways))
	}
	return &NCache{ways: ways, setShift: uint(bits.TrailingZeros(uint(lines / ways))), rng: sim.NewRand(seed)}
}

// Stats returns a copy of the statistics.
func (c *NCache) Stats() NCacheStats { return c.stats }

func (c *NCache) locate(addr int64) ([]nline, int64) {
	return c.locateLine(addr / addrmap.CachelineSize)
}

// locateLine returns the set holding line index li and li's tag.
func (c *NCache) locateLine(li int64) ([]nline, int64) {
	if c.lines == nil {
		return nil, 0
	}
	// XOR-folded set index: RX ring slots sit at power-of-two strides, so
	// a plain modulo would alias every packet header into the same one or
	// two sets. Folding the tag bits in spreads strided streams.
	tag := li >> c.setShift
	set := int((li^tag)&(1<<c.setShift-1)) * c.ways
	return c.lines[set : set+c.ways : set+c.ways], tag
}

// Insert stores one cacheline. header marks the first cacheline of a newly
// arrived packet (prefetch-inhibit flag); prefetched marks nPrefetcher
// fills. If the set is full a random victim is replaced; all lines are
// clean so no writeback occurs.
func (c *NCache) Insert(addr int64, header, prefetched bool) {
	if c.lines == nil {
		c.lines = make([]nline, c.ways<<c.setShift)
	}
	li := addr / addrmap.CachelineSize
	if c.valid == 0 {
		c.lo, c.hi = li, li
	} else {
		c.lo, c.hi = min(c.lo, li), max(c.hi, li)
	}
	set, tag := c.locateLine(li)
	// Refresh in place if present.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].header = header
			set[i].prefetch = prefetched
			c.stats.Inserts++
			return
		}
	}
	v := -1
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
	}
	if v < 0 {
		v = c.rng.Intn(c.ways)
		c.stats.Replacements++
	} else {
		c.valid++
	}
	set[v] = nline{tag: tag, valid: true, header: header, prefetch: prefetched}
	c.stats.Inserts++
}

// Read probes the cache for one cacheline. On a hit the line is consumed
// (removed). wasHeader reports the line's header flag — the nPrefetcher
// must not prefetch after a header access (paper: "We disable nPrefetcher
// for the first cacheline of RX packets").
func (c *NCache) Read(addr int64) (hit, wasHeader bool) {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			if set[i].header {
				c.stats.HeaderHits++
			}
			if set[i].prefetch {
				c.stats.PrefetchUseful++
			}
			wasHeader = set[i].header
			set[i].valid = false // consume-on-read
			c.valid--
			c.stats.Consumed++
			return true, wasHeader
		}
	}
	c.stats.Misses++
	return false, false
}

// Contains probes without consuming (for tests and the prefetcher's
// duplicate-fill suppression).
func (c *NCache) Contains(addr int64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// drop invalidates set's line with tag, if present — the nController
// snoops write addresses from the PHY and nNIC to keep nCache coherent
// with local DRAM (paper Sec. 4.1). It is small enough to inline.
func (c *NCache) drop(set []nline, tag int64) {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			c.valid--
			c.stats.Invalidations++
			return
		}
	}
}

// invalidateRange snoops the lines consecutive cachelines from addr. It
// probes only those inside [lo, hi], where every valid line lies, and
// returns once nCache holds no line.
func (c *NCache) invalidateRange(addr, lines int64) {
	first := addr / addrmap.CachelineSize
	for li, last := max(first, c.lo), min(first+lines-1, c.hi); li <= last && c.valid > 0; li++ {
		c.drop(c.locateLine(li))
	}
}

// notePrefetchFill is the statistics hook used by the device.
func (c *NCache) notePrefetchFill() { c.stats.PrefetchFills++ }
