// Package cache models the processor's last-level cache, including the
// Data Direct I/O (DDIO) way restriction that limits NIC DMA allocations to
// a fraction of the LLC (paper Sec. 2.1), and the cache flush / invalidate
// operations the NetDIMM driver uses for coherency (paper Alg. 1).
package cache

import (
	"fmt"

	"netdimm/internal/addrmap"
	"netdimm/internal/sim"
)

// Config describes a set-associative cache.
type Config struct {
	Name       string
	SizeBytes  int64
	Ways       int
	LineBytes  int64
	HitLatency sim.Time
	// DDIOWays limits DMA (DDIO) allocations to the first DDIOWays ways of
	// each set — the "usually 10% of the LLC capacity" share of Sec. 2.1.
	// Zero disables DDIO allocation entirely.
	DDIOWays int
	// FlushBase/FlushPerLine parameterise clwb/clflush cost; the NetDIMM
	// driver pays this on the TX path (txFlush) and for descriptor
	// invalidation on RX (rxInvalidate).
	FlushBase    sim.Time
	FlushPerLine sim.Time
}

// LLC2MB returns the paper's Table 1 last-level cache: 2MB, 16 ways, 12
// cycles at 3.4GHz, with a 10% DDIO share (2 of 16 ways).
func LLC2MB() Config {
	cycle := sim.FromNanos(1.0 / 3.4)
	return Config{
		Name:         "LLC",
		SizeBytes:    2 << 20,
		Ways:         16,
		LineBytes:    addrmap.CachelineSize,
		HitLatency:   12 * cycle,
		DDIOWays:     2,
		FlushBase:    40 * sim.Nanosecond,
		FlushPerLine: 10 * sim.Nanosecond,
	}
}

// Stats accumulates cache events.
type Stats struct {
	Hits, Misses    uint64
	DDIOHits        uint64
	DDIOAllocations uint64
	Evictions       uint64
	DirtyEvictions  uint64
	DDIOEvictions   uint64 // DDIO lines evicted before first use: DMA leakage [68]
	Invalidations   uint64
}

type line struct {
	tag      int64
	addr     int64 // line-aligned address, for writeback notification
	valid    bool
	dirty    bool
	ddio     bool
	ddioUsed bool // DDIO line has been read at least once
	lastUse  uint64
}

// Cache is a single-level set-associative cache with LRU replacement.
// It is a timing/occupancy model: no data is stored.
type Cache struct {
	cfg   Config
	sets  [][]line
	setsN int64
	tick  uint64
	stats Stats
	// WritebackFn, if set, is invoked for each dirty line evicted, with
	// the line's address; callers wire this to the memory controller so
	// writebacks create memory traffic.
	WritebackFn func(addr int64)
}

// New builds a cache from cfg. It panics on an inconsistent geometry, since
// that is a programming error in experiment setup.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	n := cfg.SizeBytes / (cfg.LineBytes * int64(cfg.Ways))
	if n <= 0 || cfg.SizeBytes%(cfg.LineBytes*int64(cfg.Ways)) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible into %d-way sets of %dB lines",
			cfg.SizeBytes, cfg.Ways, cfg.LineBytes))
	}
	if cfg.DDIOWays > cfg.Ways {
		panic("cache: DDIOWays exceeds Ways")
	}
	sets := make([][]line, n)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets, setsN: n}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) locate(addr int64) (set []line, tag int64) {
	lineIdx := addr / c.cfg.LineBytes
	return c.sets[lineIdx%c.setsN], lineIdx / c.setsN
}

// Lookup probes the cache without modifying replacement state.
func (c *Cache) Lookup(addr int64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Access performs a demand access (from the CPU). It returns true on hit.
// On miss the line is allocated over the LRU victim of the whole set.
func (c *Cache) Access(addr int64, write bool) bool {
	c.tick++
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			if set[i].ddio {
				c.stats.DDIOHits++
				set[i].ddioUsed = true
			}
			set[i].lastUse = c.tick
			if write {
				set[i].dirty = true
			}
			return true
		}
	}
	c.stats.Misses++
	v := c.victim(set, len(set))
	c.fill(&set[v], tag, addr, write, false)
	return false
}

// DDIOAllocate models a NIC DMA write landing in the LLC: the line is
// allocated, but only within the DDIO ways of the set, so heavy RX traffic
// cannot pollute the whole cache (and conversely can thrash its own share —
// DMA leakage). It reports whether the line was already present.
func (c *Cache) DDIOAllocate(addr int64) bool {
	if c.cfg.DDIOWays == 0 {
		return false
	}
	c.tick++
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = true
			set[i].lastUse = c.tick
			if set[i].ddio {
				set[i].ddioUsed = false // fresh DMA payload, unread again
			}
			return true
		}
	}
	v := c.victim(set, c.cfg.DDIOWays)
	c.fill(&set[v], tag, addr, true, true)
	c.stats.DDIOAllocations++
	return false
}

func (c *Cache) victim(set []line, ways int) int {
	best := 0
	for i := 0; i < ways; i++ {
		if !set[i].valid {
			return i
		}
		if set[i].lastUse < set[best].lastUse {
			best = i
		}
	}
	return best
}

func (c *Cache) fill(l *line, tag, addr int64, dirty, ddio bool) {
	if l.valid {
		c.stats.Evictions++
		if l.dirty {
			c.stats.DirtyEvictions++
			if c.WritebackFn != nil {
				c.WritebackFn(l.addr)
			}
		}
		if l.ddio && !l.ddioUsed {
			c.stats.DDIOEvictions++
		}
	}
	l.tag = tag
	l.addr = addr &^ (c.cfg.LineBytes - 1)
	l.valid = true
	l.dirty = dirty
	l.ddio = ddio
	l.ddioUsed = false
	l.lastUse = c.tick
}

// InvalidateRange drops every cached line in the range without writeback —
// the rxInvalidate operation of Alg. 1 (the descriptor must be re-fetched
// from NetDIMM memory).
func (c *Cache) InvalidateRange(addr, bytes int64) sim.Time {
	lines := c.forEachLine(addr, bytes, func(l *line) {
		c.stats.Invalidations++
		l.valid = false
	})
	if lines == 0 {
		return 0
	}
	return c.cfg.FlushBase + sim.Time(lines)*c.cfg.FlushPerLine
}

// forEachLine visits each cached line overlapping the range and returns the
// number of lines in the range (cached or not) — the cost is paid per
// instruction issued, not per hit.
func (c *Cache) forEachLine(addr, bytes int64, fn func(*line)) int64 {
	if bytes <= 0 {
		return 0
	}
	first := addr / c.cfg.LineBytes
	last := (addr + bytes - 1) / c.cfg.LineBytes
	for li := first; li <= last; li++ {
		set := c.sets[li%c.setsN]
		tag := li / c.setsN
		for i := range set {
			if set[i].valid && set[i].tag == tag {
				fn(&set[i])
				break
			}
		}
	}
	return last - first + 1
}

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}
