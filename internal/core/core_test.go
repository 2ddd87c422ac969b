package core

import (
	"testing"
	"testing/quick"

	"netdimm/internal/addrmap"
	"netdimm/internal/dram"
	"netdimm/internal/sim"
)

func TestNCacheInsertRead(t *testing.T) {
	c := NewNCache(64, 8, 1)
	c.Insert(0, true, false)
	if !c.Contains(0) {
		t.Fatal("inserted line missing")
	}
	hit, header := c.Read(0)
	if !hit || !header {
		t.Fatalf("Read = %v/%v, want hit header", hit, header)
	}
	// Consume-on-read: gone now.
	if c.Contains(0) {
		t.Fatal("line survived a read (consume-on-read violated)")
	}
	if hit, _ := c.Read(0); hit {
		t.Fatal("second read hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Consumed != 1 || s.HeaderHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNCacheRandomReplacement(t *testing.T) {
	c := NewNCache(16, 2, 7) // 8 sets x 2 ways
	// With XOR-folded indexing, (li ^ li/8) %% 8 == 0 for lines 0, 9, 18:
	// three aliases of set 0 in a 2-way cache.
	c.Insert(0, false, false)
	c.Insert(9*64, false, false)
	c.Insert(18*64, false, false) // forces a random victim
	if c.Stats().Replacements != 1 {
		t.Fatalf("Replacements = %d", c.Stats().Replacements)
	}
	if c.Occupancy() != 2 {
		t.Fatalf("Occupancy = %d, want 2", c.Occupancy())
	}
}

func TestNCacheInvalidate(t *testing.T) {
	c := NewNCache(64, 8, 1)
	c.Insert(64, false, false)
	c.Invalidate(64)
	if c.Contains(64) {
		t.Fatal("invalidated line present")
	}
	if c.Stats().Invalidations != 1 {
		t.Fatal("invalidation not counted")
	}
	c.Invalidate(128) // miss: no count
	if c.Stats().Invalidations != 1 {
		t.Fatal("missing invalidation counted")
	}
}

func TestNCacheDuplicateInsert(t *testing.T) {
	c := NewNCache(64, 8, 1)
	c.Insert(0, false, false)
	c.Insert(0, true, false) // refresh with header flag
	if c.Occupancy() != 1 {
		t.Fatalf("Occupancy = %d after duplicate insert", c.Occupancy())
	}
	_, header := c.Read(0)
	if !header {
		t.Fatal("refresh did not update header flag")
	}
}

// Property: occupancy is bounded by capacity and reads never return data
// that was not inserted.
func TestNCacheBoundsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewNCache(32, 4, 9)
		live := make(map[int64]bool)
		for _, op := range ops {
			addr := int64(op%64) * 64
			switch op % 3 {
			case 0:
				c.Insert(addr, false, false)
				live[addr] = true
			case 1:
				hit, _ := c.Read(addr)
				if hit && !live[addr] {
					return false // phantom line
				}
				delete(live, addr) // consumed or absent either way
			default:
				c.Invalidate(addr)
				delete(live, addr)
			}
			if c.Occupancy() > c.Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the valid-line counter that lets a snoop skip an empty cache
// equals Occupancy after every step of random Insert/Read/Invalidate
// streams, and a range snoop leaves the cache and its statistics exactly
// as the per-line Invalidate calls it stands for.
func TestNCacheValidCountProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c, ref := NewNCache(16, 2, 3), NewNCache(16, 2, 3)
		for _, op := range ops {
			addr := int64(op%48) * 64
			switch op >> 8 % 4 {
			case 0:
				c.Insert(addr, op&1 == 0, false)
				ref.Insert(addr, op&1 == 0, false)
			case 1:
				c.Read(addr)
				ref.Read(addr)
			case 2:
				c.Invalidate(addr)
				ref.Invalidate(addr)
			default:
				n := int64(op>>10) + 1
				c.invalidateRange(addr, n)
				for i := int64(0); i < n; i++ {
					ref.Invalidate(addr + i*64)
				}
			}
			if c.valid != c.Occupancy() || c.Occupancy() != ref.Occupancy() || c.Stats() != ref.Stats() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// NewNCache rejects a line count that is not a whole number of sets and a
// set count that is not a power of two (12 sets of 8 ways).
func TestNCacheBadGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{10, 3}, {96, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad geometry %d lines / %d ways accepted", g[0], g[1])
				}
			}()
			NewNCache(g[0], g[1], 1)
		}()
	}
}

func newDevice(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewDevice(eng, DefaultConfig())
}

func TestReceivePacketCachesHeader(t *testing.T) {
	eng, d := newDevice(t)
	fired := false
	if err := d.ReceivePacket(0x10000, 1514, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !fired {
		t.Fatal("completion callback not fired")
	}
	if !d.NCache().Contains(0x10000) {
		t.Fatal("header line not cached")
	}
	if d.NCache().Contains(0x10000 + 64) {
		t.Fatal("payload line cached on receive")
	}
	if d.Stats().NNICWrites != 24 {
		t.Fatalf("NNICWrites = %d, want 24 (1514B)", d.Stats().NNICWrites)
	}
}

func TestHostReadHeaderHit(t *testing.T) {
	eng, d := newDevice(t)
	d.ReceivePacket(0x10000, 1514, nil)
	eng.Run()

	var gotHit bool
	var gotLat, at sim.Time
	start := eng.Now()
	d.HostReadLine(0x10000, func(hit bool, lat sim.Time) { gotHit, gotLat, at = hit, lat, eng.Now() })
	eng.Run()
	if !gotHit {
		t.Fatal("header read should hit nCache")
	}
	want := DefaultConfig().Protocol.ReadLatency(DefaultConfig().SRAMLatency)
	if gotLat != want || at-start != want {
		t.Fatalf("header hit latency = %v, completed after %v, want %v", gotLat, at-start, want)
	}
	// Header access must NOT trigger prefetching (paper Sec. 4.1).
	if d.Stats().Prefetches != 0 {
		t.Fatalf("header access armed the prefetcher: %d", d.Stats().Prefetches)
	}
}

func TestHostReadPayloadPrefetches(t *testing.T) {
	eng, d := newDevice(t)
	d.ReceivePacket(0x10000, 1514, nil)
	eng.Run()

	// First payload line misses and arms the prefetcher.
	var missLat sim.Time
	d.HostReadLine(0x10000+64, func(hit bool, lat sim.Time) {
		if hit {
			t.Error("first payload read should miss")
		}
		missLat = lat
	})
	eng.Run()
	if d.Stats().Prefetches == 0 {
		t.Fatal("payload miss did not prefetch")
	}
	// Subsequent lines hit thanks to the prefetcher ("in the worst case,
	// reading an entire RX packet may only experience one nCache miss").
	var hits, misses int
	for i := 2; i < 24; i++ {
		addr := 0x10000 + int64(i)*64
		d.HostReadLine(addr, func(hit bool, lat sim.Time) {
			if hit {
				hits++
				if lat >= missLat {
					t.Errorf("hit latency %v not below miss latency %v", lat, missLat)
				}
			} else {
				misses++
			}
		})
		eng.Run()
	}
	if hits < 20 {
		t.Fatalf("prefetcher ineffective: %d hits, %d misses", hits, misses)
	}
}

// A host read that finds the nMC read queue full waits for a slot. It
// counts one host read and one nCache miss, arms the prefetcher once
// (two lines take the last free slots and two are dropped), and reports
// its latency from its arrival, not from its admission at the next pick.
func TestHostReadWaitsForQueueSlot(t *testing.T) {
	eng, d := newDevice(t)
	free := 2
	// One line of the fetch issues at 0, before the read arrives.
	lines := DefaultConfig().MC.ReadQueueCap - free + 1
	if err := d.TransmitFetch(0x100000, lines*int(addrmap.CachelineSize), nil); err != nil {
		t.Fatal(err)
	}
	arrival := sim.Nanosecond
	var calls int
	var hit bool
	var lat, at sim.Time
	eng.At(arrival, func() {
		d.HostReadLine(0x10000+64, func(h bool, l sim.Time) { calls, hit, lat, at = calls+1, h, l, eng.Now() })
	})
	eng.Run()
	if calls != 1 || hit {
		t.Fatalf("done called %d times, hit %v; want one miss", calls, hit)
	}
	if s, m := d.Stats(), d.NCache().Stats().Misses; s.HostReads != 1 || m != 1 || s.Prefetches != uint64(free) {
		t.Fatalf("%d host reads, %d nCache misses, %d prefetches; want 1, 1 and %d", s.HostReads, m, s.Prefetches, free)
	}
	if lat != at-arrival {
		t.Fatalf("latency %v, want the %v from its arrival to its completion", lat, at-arrival)
	}
}

func TestReceiveSnoopsStaleLines(t *testing.T) {
	eng, d := newDevice(t)
	d.ReceivePacket(0x30000, 256, nil)
	eng.Run()
	// Re-receive into the same buffer: previously cached lines for the
	// payload must be invalidated, header refreshed.
	d.ReceivePacket(0x30000, 256, nil)
	eng.Run()
	if !d.NCache().Contains(0x30000) {
		t.Fatal("header line missing after re-receive")
	}
}

func TestCloneModesAndLatency(t *testing.T) {
	eng, d := newDevice(t)
	src := int64(0)
	dstFPM := src + addrmap.SameSubarrayPageStride
	dstGCM := src + addrmap.RankBytes

	var mode dram.CloneMode
	lat := d.Clone(dstFPM, src, 1514, func(m dram.CloneMode) { mode = m })
	eng.Run()
	if mode != dram.FPM {
		t.Fatalf("mode = %v, want FPM", mode)
	}
	if lat != 90*sim.Nanosecond {
		t.Fatalf("FPM clone latency = %v", lat)
	}
	lat2 := d.Clone(dstGCM, src, 1514, nil)
	if lat2 <= lat {
		t.Fatalf("GCM %v should cost more than FPM %v", lat2, lat)
	}
	eng.Run()
	if d.Stats().Clones[dram.FPM] != 1 || d.Stats().Clones[dram.GCM] != 1 {
		t.Fatalf("clone stats = %v", d.Stats().Clones)
	}
	if d.CloneLatency(dstFPM, src, 1514) != 90*sim.Nanosecond {
		t.Fatal("CloneLatency mismatch")
	}
}

func TestCloneSnoopsDestination(t *testing.T) {
	eng, d := newDevice(t)
	dst := addrmap.SameSubarrayPageStride
	d.ReceivePacket(dst, 128, nil) // header of dst cached
	eng.Run()
	d.Clone(dst, 0, 1514, nil)
	if d.NCache().Contains(dst) {
		t.Fatal("clone did not snoop-invalidate destination lines")
	}
	eng.Run()
}

func TestTransmitFetch(t *testing.T) {
	eng, d := newDevice(t)
	fired := false
	if err := d.TransmitFetch(0x40000, 1024, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !fired {
		t.Fatal("TransmitFetch completion missing")
	}
	if d.Stats().NNICReads != 16 {
		t.Fatalf("NNICReads = %d, want 16", d.Stats().NNICReads)
	}
}

func TestDeviceErrors(t *testing.T) {
	_, d := newDevice(t)
	if err := d.ReceivePacket(0, 0, nil); err == nil {
		t.Error("zero-size receive accepted")
	}
	if err := d.TransmitFetch(0, -1, nil); err == nil {
		t.Error("negative-size transmit accepted")
	}
}

func TestDeviceSizeAndBus(t *testing.T) {
	_, d := newDevice(t)
	if d.Size() != 16<<30 {
		t.Fatalf("Size = %d", d.Size())
	}
	if d.RegisterBus().Name() != "memory-channel" {
		t.Fatal("register bus should be the memory channel")
	}
	// Register access over the channel is far below a PCIe round trip.
	if d.RegisterBus().ReadCost() > 200*sim.Nanosecond {
		t.Fatalf("register read = %v, implausibly slow", d.RegisterBus().ReadCost())
	}
}
