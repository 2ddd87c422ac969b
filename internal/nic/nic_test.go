package nic

import (
	"testing"

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
