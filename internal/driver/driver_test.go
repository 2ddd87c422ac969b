package driver

import (
	"strings"
	"testing"

	"netdimm/internal/dram"
	"netdimm/internal/ethernet"
	"netdimm/internal/kalloc"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
)

func pkt(size int) nic.Packet { return nic.Packet{Size: size} }

func fabric() ethernet.Fabric {
	return ethernet.NewFabricWith(ethernet.LinkGbps(40), 100*sim.Nanosecond)
}

func TestCopyTimeScaling(t *testing.T) {
	c := DefaultCosts()
	small := c.CopyTime(64)
	big := c.CopyTime(8192)
	if big <= small {
		t.Fatal("copy time must grow with size")
	}
	if c.CopyTime(0) != c.CopyFixed {
		t.Fatal("zero-byte copy should cost the fixed part")
	}
}

func TestFlushTimeScaling(t *testing.T) {
	c := DefaultCosts()
	if c.FlushTime(64) >= c.FlushTime(1514) {
		t.Fatal("flush grows with line count")
	}
	if c.FlushTime(1) != c.FlushBase+c.FlushPerLine {
		t.Fatal("sub-line flush costs one line")
	}
}

func TestDNICBreakdownComponents(t *testing.T) {
	d := NewDNICMachine(false)
	b := d.TX(pkt(256))
	for _, comp := range []stats.Component{stats.IOReg, stats.TxCopy, stats.TxDMA} {
		if b[comp] <= 0 {
			t.Errorf("TX missing component %s", comp)
		}
	}
	if b[stats.TxFlush] != 0 || b[stats.RxInvalidate] != 0 {
		t.Error("dNIC must not pay NetDIMM coherency costs")
	}
	rb := d.RX(pkt(256))
	for _, comp := range []stats.Component{stats.RxDMA, stats.RxCopy} {
		if rb[comp] <= 0 {
			t.Errorf("RX missing component %s", comp)
		}
	}
}

func TestZeroCopyRemovesSizeDependence(t *testing.T) {
	d := NewDNICMachine(false)
	z := NewDNICMachine(true)
	// Zero copy: txCopy no longer scales with packet size.
	if z.TX(pkt(64))[stats.TxCopy] != z.TX(pkt(8000))[stats.TxCopy] {
		t.Fatal("zcpy txCopy should be size independent")
	}
	// And it must beat copying for large packets.
	if z.TX(pkt(8000))[stats.TxCopy] >= d.TX(pkt(8000))[stats.TxCopy] {
		t.Fatal("zcpy should beat copy for large packets")
	}
	if z.Name() != "dNIC.zcpy" || d.Name() != "dNIC" {
		t.Fatalf("names: %s / %s", d.Name(), z.Name())
	}
}

func TestINICCheaperIOReg(t *testing.T) {
	dn := NewDNICMachine(false)
	in := NewINICMachine(false)
	p := pkt(256)
	dnB := dn.TX(p).Plus(dn.RX(p))
	inB := in.TX(p).Plus(in.RX(p))
	if inB[stats.IOReg]*4 > dnB[stats.IOReg] {
		t.Fatalf("iNIC I/O reg %v should be a small fraction of dNIC %v (paper Sec. 3)",
			inB[stats.IOReg], dnB[stats.IOReg])
	}
	if inB.Total() >= dnB.Total() {
		t.Fatal("iNIC must beat dNIC")
	}
}

func TestPCIeShare(t *testing.T) {
	d := NewDNICMachine(false)
	p := pkt(64)
	total := OneWay(d, d, p, fabric(), nil).Total()
	share := d.PCIeShare(p, total)
	if share < 0.3 || share > 0.95 {
		t.Fatalf("PCIe share = %v, want a dominant fraction", share)
	}
	// iNIC has no PCIe.
	if NewINICMachine(false).PCIeShare(p, total) != 0 {
		t.Fatal("iNIC PCIe share should be 0")
	}
}

func newND(t *testing.T) *NetDIMMDriver {
	t.Helper()
	nd, err := NewNetDIMMMachine(1)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

func TestNetDIMMTXFastPath(t *testing.T) {
	nd := newND(t)
	b := nd.TX(pkt(1514))
	if b[stats.TxFlush] <= 0 {
		t.Fatal("fast path must pay txFlush")
	}
	if b[stats.TxDMA] <= 0 {
		t.Fatal("TX must include nController fetch")
	}
	s := nd.Stats()
	if s.TxFast != 1 || s.TxSlow != 0 {
		t.Fatalf("stats = %+v, want fast path", s)
	}
	// Fast path: no CPU copy, so txCopy is small and size independent.
	if b2 := nd.TX(pkt(8000)); b2[stats.TxCopy] != b[stats.TxCopy] {
		t.Fatal("fast-path txCopy should be size independent")
	}
}

func TestNetDIMMTXSlowPath(t *testing.T) {
	nd := newND(t)
	nd.CopyNeeded = true
	b := nd.TX(pkt(1514))
	s := nd.Stats()
	if s.TxSlow != 1 {
		t.Fatal("slow path not taken")
	}
	nd2 := newND(t)
	fastB := nd2.TX(pkt(1514))
	if b[stats.TxCopy] <= fastB[stats.TxCopy] {
		t.Fatal("COPY_NEEDED path must pay the CPU copy")
	}
}

func TestNetDIMMRXUsesCloneAndHeaderCache(t *testing.T) {
	nd := newND(t)
	b := nd.RX(pkt(1514))
	s := nd.Stats()
	if s.ClonesFPM != 1 {
		t.Fatalf("clone mode stats = %+v, want one FPM clone (allocCache affinity)", s)
	}
	if s.HeaderCacheHits != 1 {
		t.Fatalf("header read missed nCache: %+v", s)
	}
	if b[stats.RxInvalidate] <= 0 {
		t.Fatal("RX must pay rxInvalidate")
	}
	// The clone replaces a CPU copy: rxCopy must be well below the dNIC's.
	dn := NewDNICMachine(false)
	if b[stats.RxCopy] >= dn.RX(pkt(1514))[stats.RxCopy] {
		t.Fatalf("NetDIMM rxCopy %v should beat dNIC %v",
			b[stats.RxCopy], dn.RX(pkt(1514))[stats.RxCopy])
	}
}

func TestNetDIMMSteadyState(t *testing.T) {
	nd := newND(t)
	// Sustained RX must not leak allocCache pages or degrade.
	var first, last sim.Time
	for i := 0; i < 200; i++ {
		tot := nd.RX(pkt(1514)).Total()
		if i == 0 {
			first = tot
		}
		last = tot
	}
	if nd.Stats().AllocSlow > 10 {
		t.Fatalf("allocCache degraded: %d slow allocations", nd.Stats().AllocSlow)
	}
	if last > 2*first {
		t.Fatalf("RX degraded from %v to %v", first, last)
	}
	if nd.Stats().ClonesFPM < 190 {
		t.Fatalf("FPM clones = %d of 200", nd.Stats().ClonesFPM)
	}
}

// On an exhausted NET_i zone the RX path receives into the driver's own
// app buffer. It must count the packet once and keep that buffer: freeing
// it would let a later allocation alias the app page.
func TestNetDIMMRXZoneExhausted(t *testing.T) {
	nd := newND(t)
	exhaustZone(t, nd)
	nd.RX(pkt(1514))
	if p, err := nd.Zone.AllocPage(); err == nil {
		t.Fatalf("page %#x free after an RX on an exhausted zone: the app buffer was freed", p)
	}
	if got := nd.Stats().ZoneExhausted; got != 1 {
		t.Fatalf("ZoneExhausted = %d for one packet, want 1", got)
	}
}

// exhaustZone allocates every page of nd's NET_i zone.
func exhaustZone(t *testing.T, nd *NetDIMMDriver) {
	t.Helper()
	// Empty the allocCache, keeping one of each bucket's pages as a hint
	// into that bucket. The first Get that misses the cache takes its page
	// from the zone: the cache is then empty.
	hints := make([]int64, nd.Zone.Buckets())
	for fast := true; fast; {
		var p int64
		var err error
		p, fast, err = nd.Cache.Get(kalloc.NoHint)
		if err != nil {
			t.Fatalf("draining the allocCache: %v", err)
		}
		key, err := nd.Zone.SubarrayKeyOf(p)
		if err != nil {
			t.Fatal(err)
		}
		hints[key] = p
	}
	// Exhaust the zone bucket by bucket from the highest key down. Once a
	// bucket runs dry its hinted allocation falls back to the lowest-keyed
	// bucket with a free page, which stays near key 0, so set-up is linear
	// in the zone's pages rather than quadratic in its buckets.
	for key := len(hints) - 1; ; {
		p, err := nd.Zone.AllocPageHint(hints[key])
		if err != nil {
			if strings.Contains(err.Error(), "exhausted") {
				return
			}
			t.Fatal(err)
		}
		if got, _ := nd.Zone.SubarrayKeyOf(p); int(got) != key {
			key--
		}
	}
}

func TestOneWayOrdering(t *testing.T) {
	// The paper's central result ordering at every size: NetDIMM < iNIC <
	// dNIC.
	for _, size := range []int{10, 64, 256, 1024, 1514, 4000, 8000} {
		nd := newND(t)
		ndB := OneWay(nd, newND(t), pkt(size), fabric(), nil)
		inB := OneWay(NewINICMachine(false), NewINICMachine(false), pkt(size), fabric(), nil)
		dnB := OneWay(NewDNICMachine(false), NewDNICMachine(false), pkt(size), fabric(), nil)
		if !(ndB.Total() < inB.Total() && inB.Total() < dnB.Total()) {
			t.Errorf("size %d: NetDIMM %v, iNIC %v, dNIC %v — ordering violated",
				size, ndB.Total(), inB.Total(), dnB.Total())
		}
	}
}

func TestNetDIMMFlushInvalidateShare(t *testing.T) {
	// Paper Sec. 5.2: txFlush + rxInvalidate add ~9.7-15.8% of the total.
	var shares []float64
	for _, size := range []int{64, 256, 1024, 1514} {
		nd := newND(t)
		b := OneWay(nd, newND(t), pkt(size), fabric(), nil)
		share := float64(b[stats.TxFlush]+b[stats.RxInvalidate]) / float64(b.Total())
		shares = append(shares, share)
		if share < 0.02 || share > 0.25 {
			t.Errorf("size %d: flush+invalidate share = %.1f%%, want ~10-16%%", size, share*100)
		}
	}
	_ = shares
}

func TestNetDIMMCloneModeDependsOnAffinity(t *testing.T) {
	nd := newND(t)
	_ = nd.RX(pkt(256))
	if nd.Stats().ClonesOther != 0 {
		t.Fatal("affine allocation should yield FPM clones only")
	}
	_ = dram.FPM // keep import honest if assertions change
}

// scaleCosts multiplies every time constant of c by f and divides its copy
// rate by f, so the whole software stack runs f times slower.
func scaleCosts(c Costs, f float64) Costs {
	scale := func(t sim.Time) sim.Time { return sim.Time(float64(t) * f) }
	return Costs{
		SKBAlloc:         scale(c.SKBAlloc),
		CopyFixed:        scale(c.CopyFixed),
		CopyBytesPerSec:  c.CopyBytesPerSec / f,
		PollCheck:        scale(c.PollCheck),
		DescWrite:        scale(c.DescWrite),
		ZcpyPin:          scale(c.ZcpyPin),
		AllocCacheLookup: scale(c.AllocCacheLookup),
		SlowAllocPages:   scale(c.SlowAllocPages),
		FlushBase:        scale(c.FlushBase),
		FlushPerLine:     scale(c.FlushPerLine),
	}
}

// The paper's qualitative result must not hinge on the exact calibration:
// NetDIMM < iNIC < dNIC holds with the whole software cost set halved or
// doubled.
func TestOrderingHoldsUnderScaledCosts(t *testing.T) {
	for _, f := range []float64{0.5, 2} {
		costs := scaleCosts(DefaultCosts(), f)
		for _, size := range []int{64, 1514, 8000} {
			p := pkt(size)
			dn := NewDNICMachine(false)
			dn.Costs = costs
			in := NewINICMachine(false)
			in.Costs = costs

			nd, err := NewNetDIMMMachine(9)
			if err != nil {
				t.Fatal(err)
			}
			nd.Costs = costs
			ndRX, err := NewNetDIMMMachine(10)
			if err != nil {
				t.Fatal(err)
			}
			ndRX.Costs = costs

			ndB := OneWay(nd, ndRX, p, fabric(), nil)
			inB := OneWay(in, in, p, fabric(), nil)
			dnB := OneWay(dn, dn, p, fabric(), nil)
			if !(ndB.Total() < inB.Total() && inB.Total() < dnB.Total()) {
				t.Errorf("costs x%g, size %d: ND %v iNIC %v dNIC %v",
					f, size, ndB.Total(), inB.Total(), dnB.Total())
			}
		}
	}
}

func TestTxRingCleaning(t *testing.T) {
	nd, err := NewNetDIMMMachine(17)
	if err != nil {
		t.Fatal(err)
	}
	// Sustained TX far beyond the ring capacity must not wedge: the
	// polling agent reclaims completed descriptors.
	for i := 0; i < 1000; i++ {
		nd.TX(pkt(256))
	}
	s := nd.Stats()
	if s.TxFast != 1000 {
		t.Fatalf("TxFast = %d", s.TxFast)
	}
	if s.TxCleaned == 0 {
		t.Fatal("no TX descriptors reclaimed")
	}
	if s.TxCleaned+uint64(256) < 1000 {
		t.Fatalf("cleaning fell behind: cleaned %d of 1000", s.TxCleaned)
	}
}

// TestTxRingReclaimsBatch: each TX marks its own descriptor done, so the
// polling agent reclaims the whole ring once it is half full — 128 TXs on
// the 256-slot ring leave it empty.
func TestTxRingReclaimsBatch(t *testing.T) {
	nd, err := NewNetDIMMMachine(17)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		nd.TX(pkt(256))
		if want := (i + 1) % 128; nd.txRing.Len() != want {
			t.Fatalf("after %d TXs the ring holds %d descriptors, want %d", i+1, nd.txRing.Len(), want)
		}
	}
	if s := nd.Stats(); s.TxCleaned != 128 {
		t.Fatalf("TxCleaned = %d, want 128", s.TxCleaned)
	}
}

func TestRxRingBalanced(t *testing.T) {
	nd, err := NewNetDIMMMachine(18)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		nd.RX(pkt(512))
	}
	// Every RX consumed its descriptor: the ring is empty at rest.
	if nd.rxRing.Len() != 0 {
		t.Fatalf("rx ring holds %d stale descriptors", nd.rxRing.Len())
	}
}
