package cache

import (
	"testing"
	"testing/quick"

	"netdimm/internal/sim"
)

func small() Config {
	return Config{
		Name:         "test",
		SizeBytes:    8 * 1024, // 8KB: 16 sets x 8 ways x 64B
		Ways:         8,
		LineBytes:    64,
		HitLatency:   3 * sim.Nanosecond,
		DDIOWays:     2,
		FlushBase:    40 * sim.Nanosecond,
		FlushPerLine: 10 * sim.Nanosecond,
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := New(small())
	if c.Access(0, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(63, false) {
		t.Fatal("same-line access missed")
	}
	if c.Access(64, false) {
		t.Fatal("next-line access hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d", s.Hits, s.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(small())
	// 16 sets: addresses k*16*64 all map to set 0. Fill 8 ways.
	stride := int64(16 * 64)
	for i := int64(0); i < 8; i++ {
		c.Access(i*stride, false)
	}
	c.Access(0, false) // touch line 0: it becomes MRU
	c.Access(8*stride, false)
	if !c.Lookup(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Lookup(stride) {
		t.Fatal("LRU line survived")
	}
}

func TestDDIOWayRestriction(t *testing.T) {
	c := New(small())
	stride := int64(16 * 64)
	// Warm the set with 8 demand lines.
	for i := int64(0); i < 8; i++ {
		c.Access(i*stride, true)
	}
	// A storm of DDIO allocations to the same set may only thrash the DDIO
	// ways; at most DDIOWays demand lines can be displaced.
	for i := int64(100); i < 140; i++ {
		c.DDIOAllocate(i * stride)
	}
	surviving := 0
	for i := int64(0); i < 8; i++ {
		if c.Lookup(i * stride) {
			surviving++
		}
	}
	if surviving < 8-small().DDIOWays {
		t.Fatalf("DDIO storm displaced %d demand lines, cap is %d", 8-surviving, small().DDIOWays)
	}
}

func TestDDIODisabled(t *testing.T) {
	cfg := small()
	cfg.DDIOWays = 0
	c := New(cfg)
	if c.DDIOAllocate(0) {
		t.Fatal("DDIOAllocate with DDIO disabled should report not-present")
	}
	if c.Occupancy() != 0 {
		t.Fatal("DDIO-disabled allocation should not install a line")
	}
}

// DMA leakage (paper ref [68]): DDIO lines evicted before the CPU reads
// them are counted.
func TestDMALeakage(t *testing.T) {
	c := New(small())
	stride := int64(16 * 64)
	for i := int64(0); i < 10; i++ {
		c.DDIOAllocate(i * stride) // 2 DDIO ways, 10 allocations: 8 leaked
	}
	if got := c.Stats().DDIOEvictions; got != 8 {
		t.Fatalf("DDIOEvictions = %d, want 8", got)
	}
	// A consumed DDIO line does not count as leakage.
	c2 := New(small())
	c2.DDIOAllocate(0)
	c2.Access(0, false) // CPU consumes it
	for i := int64(1); i < 4; i++ {
		c2.DDIOAllocate(i * stride)
	}
	if got := c2.Stats().DDIOEvictions; got != 1 {
		t.Fatalf("DDIOEvictions = %d, want 1 (only the unread line)", got)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(small())
	var wb []int64
	c.WritebackFn = func(a int64) { wb = append(wb, a) }
	stride := int64(16 * 64)
	c.Access(0, true) // dirty
	for i := int64(1); i <= 8; i++ {
		c.Access(i*stride, false)
	}
	if len(wb) != 1 || wb[0] != 0 {
		t.Fatalf("writebacks = %v, want [0]", wb)
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Fatalf("DirtyEvictions = %d", c.Stats().DirtyEvictions)
	}
}

// The rxInvalidate loop is priced like a flush loop: per line in the
// range, cached or not.
func TestFlushCostCountsUncachedLines(t *testing.T) {
	c := New(small())
	// Nothing cached: the cost is still paid per line in the range.
	cost := c.InvalidateRange(0, 640)
	want := small().FlushBase + 10*small().FlushPerLine
	if cost != want {
		t.Fatalf("invalidate cost = %v, want %v", cost, want)
	}
	if c.InvalidateRange(0, 0) != 0 {
		t.Fatal("empty invalidate should be free")
	}
}

func TestInvalidateRange(t *testing.T) {
	c := New(small())
	var wb []int64
	c.WritebackFn = func(a int64) { wb = append(wb, a) }
	c.Access(0, true)
	c.InvalidateRange(0, 64)
	if c.Lookup(0) {
		t.Fatal("invalidated line still present")
	}
	if len(wb) != 0 {
		t.Fatal("invalidate must not write back")
	}
	if c.Stats().Invalidations != 1 {
		t.Fatalf("Invalidations = %d", c.Stats().Invalidations)
	}
}

func TestUnalignedRange(t *testing.T) {
	c := New(small())
	c.Access(64, false)
	// Range [100, 130) overlaps lines 1 and 2.
	cost := c.InvalidateRange(100, 30)
	want := small().FlushBase + 2*small().FlushPerLine
	if cost != want {
		t.Fatalf("cost = %v, want %v", cost, want)
	}
	if c.Lookup(64) {
		t.Fatal("line overlapping range not invalidated")
	}
}

// Property: occupancy never exceeds capacity and hit rate stays in [0,1].
func TestOccupancyBoundProperty(t *testing.T) {
	cfg := small()
	capLines := int(cfg.SizeBytes / cfg.LineBytes)
	f := func(ops []uint16) bool {
		c := New(cfg)
		for _, op := range ops {
			addr := int64(op) * 64
			switch op % 3 {
			case 0:
				c.Access(addr, false)
			case 1:
				c.Access(addr, true)
			default:
				c.DDIOAllocate(addr)
			}
		}
		hr := c.Stats().HitRate()
		return c.Occupancy() <= capLines && hr >= 0 && hr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after DDIOAllocate, Lookup finds the line (inclusion of fresh
// DMA data), provided DDIO is enabled.
func TestDDIOInstallsProperty(t *testing.T) {
	c := New(small())
	f := func(raw uint16) bool {
		addr := int64(raw) * 64
		c.DDIOAllocate(addr)
		return c.Lookup(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{SizeBytes: 0, Ways: 8, LineBytes: 64},
		{SizeBytes: 8192, Ways: 0, LineBytes: 64},
		{SizeBytes: 1000, Ways: 8, LineBytes: 64}, // not divisible
		{SizeBytes: 8192, Ways: 8, LineBytes: 64, DDIOWays: 9},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad geometry accepted", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestLLC2MBConfig(t *testing.T) {
	cfg := LLC2MB()
	c := New(cfg)
	if got := cfg.DDIOWays * 100 / cfg.Ways; got > 15 || got < 10 {
		t.Fatalf("DDIO share = %d%%, want ~10%%", got)
	}
	if c.Occupancy() != 0 {
		t.Fatal("new cache not empty")
	}
}
