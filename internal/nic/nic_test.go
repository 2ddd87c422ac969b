package nic

import (
	"testing"
	"testing/quick"

	"netdimm/internal/sim"
)

func TestPacketCachelines(t *testing.T) {
	cases := []struct{ size, want int }{
		{1, 1}, {10, 1}, {64, 1}, {65, 2}, {1514, 24}, {0, 1},
	}
	for _, c := range cases {
		if got := (Packet{Size: c.size}).Cachelines(); got != c.want {
			t.Errorf("Cachelines(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestRingFIFO(t *testing.T) {
	r := NewRing("tx", 0x1000, 4)
	for i := 0; i < 4; i++ {
		if err := r.Push(Descriptor{BufAddr: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Full() {
		t.Fatal("ring should be full")
	}
	if err := r.Push(Descriptor{}); err == nil {
		t.Fatal("push to full ring accepted")
	}
	for i := 0; i < 4; i++ {
		d, err := r.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if d.BufAddr != int64(i) {
			t.Fatalf("pop %d: got buf %d", i, d.BufAddr)
		}
	}
	if !r.Empty() {
		t.Fatal("ring should be empty")
	}
	if _, err := r.Pop(); err == nil {
		t.Fatal("pop from empty ring accepted")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing("rx", 0, 3)
	for round := 0; round < 10; round++ {
		if err := r.Push(Descriptor{BufAddr: int64(round)}); err != nil {
			t.Fatal(err)
		}
		d, err := r.Pop()
		if err != nil || d.BufAddr != int64(round) {
			t.Fatalf("round %d: %v %v", round, d, err)
		}
	}
}

func TestRingMarkDone(t *testing.T) {
	r := NewRing("rx", 0, 2)
	if err := r.MarkDone(); err == nil {
		t.Fatal("MarkDone on empty ring accepted")
	}
	r.Push(Descriptor{})
	if err := r.MarkDone(); err != nil {
		t.Fatal(err)
	}
	d, _ := r.Peek()
	if !d.Done {
		t.Fatal("descriptor not marked done")
	}
}

// TestRingMarkDoneMarksNewest: MarkDone flags the descriptor just pushed,
// not the oldest one.
func TestRingMarkDoneMarksNewest(t *testing.T) {
	r := NewRing("tx", 0, 3)
	for i := 0; i < 5; i++ {
		r.Push(Descriptor{BufAddr: int64(i)})
		if err := r.MarkDone(); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			r.Push(Descriptor{BufAddr: int64(i) + 100})
		}
		// Every descriptor followed by MarkDone is done, the others not.
		for r.Len() > 1 {
			d, _ := r.Pop()
			if d.Done != (d.BufAddr < 100) {
				t.Fatalf("descriptor %d: Done = %v", d.BufAddr, d.Done)
			}
		}
	}
}

// Property: count always equals pushes-pops and never exceeds capacity.
func TestRingInvariantProperty(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewRing("p", 0, 5)
		pushed, popped := 0, 0
		for _, push := range ops {
			if push {
				if err := r.Push(Descriptor{}); err == nil {
					pushed++
				}
			} else {
				if _, err := r.Pop(); err == nil {
					popped++
				}
			}
			if r.Len() != pushed-popped || r.Len() > r.Cap() || r.Len() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero ring accepted")
		}
	}()
	NewRing("bad", 0, 0)
}

func TestTraceTransferShape(t *testing.T) {
	// A 1514B packet at 40Gbps: 24 cachelines in a short burst.
	tr := TraceTransfer(0, 0x1000, 1514, true, 40e9/8)
	if len(tr) != 24 {
		t.Fatalf("trace entries = %d, want 24", len(tr))
	}
	for i, e := range tr {
		if e.Addr != 0x1000+int64(i)*64 {
			t.Fatalf("entry %d addr = %#x", i, e.Addr)
		}
		if !e.Write {
			t.Fatal("RX trace must be writes")
		}
	}
	// Paper Fig. 7: the burst spans on the order of 150ns.
	span := tr[len(tr)-1].At - tr[0].At
	if span < 100*sim.Nanosecond || span > 400*sim.Nanosecond {
		t.Fatalf("burst span = %v, want ~150-300ns", span)
	}
	if TraceTransfer(0, 0, 0, true, 1e9) != nil {
		t.Fatal("empty transfer should produce no trace")
	}
}

func TestBusCostOrdering(t *testing.T) {
	d := NewDNIC()
	i := NewINIC()
	m := DefaultMemChannelBus()
	// The central claim of Fig. 11: I/O register access cost ordering is
	// PCIe >> memory channel > on-chip.
	if !(d.Regs().ReadCost() > 5*m.ReadCost()) {
		t.Fatalf("PCIe reg read %v should dwarf memory-channel read %v",
			d.Regs().ReadCost(), m.ReadCost())
	}
	if !(m.ReadCost() > i.Regs().ReadCost()) {
		t.Fatalf("memory-channel read %v should exceed on-chip read %v",
			m.ReadCost(), i.Regs().ReadCost())
	}
	// Reads cost more than posted writes on every bus.
	for _, b := range []RegisterBus{d.Regs(), i.Regs(), m} {
		if b.ReadCost() < b.WriteCost() {
			t.Errorf("%s: read %v < write %v", b.Name(), b.ReadCost(), b.WriteCost())
		}
	}
}

func TestDeviceCostOrdering(t *testing.T) {
	d, i := NewDNIC(), NewINIC()
	// Descriptor fetches: an amortised PCIe batch read still costs more
	// than an on-chip access.
	if d.DescriptorFetch() <= i.DescriptorFetch() {
		t.Fatalf("dNIC descriptor fetch %v should exceed iNIC %v",
			d.DescriptorFetch(), i.DescriptorFetch())
	}
	// Packet movement for an MTU frame: crossing PCIe costs more than
	// moving through the LLC.
	if d.PacketRead(MTU) <= i.PacketRead(MTU) {
		t.Fatal("dNIC packet read should cost more than iNIC")
	}
	if d.Name() != "dNIC" || i.Name() != "iNIC" {
		t.Fatal("names wrong")
	}
}

func TestDMACostMonotonic(t *testing.T) {
	d, i := NewDNIC(), NewINIC()
	for _, dev := range []Device{d, i} {
		if dev.PacketRead(64) > dev.PacketRead(1514) {
			t.Errorf("%s: PacketRead not monotonic", dev.Name())
		}
		if dev.PacketWrite(64) > dev.PacketWrite(1514) {
			t.Errorf("%s: PacketWrite not monotonic", dev.Name())
		}
	}
}
