package nic

import (
	"netdimm/internal/addrmap"
	"netdimm/internal/pcie"
	"netdimm/internal/sim"
)

// TraceEntry is one cacheline-granular memory request issued by a DMA
// engine, as observed at the memory controller (paper Fig. 7 plots exactly
// this: relative address vs relative arrival time).
type TraceEntry struct {
	Addr  int64
	At    sim.Time
	Write bool
}

// TraceTransfer generates the per-cacheline request trace for a DMA of
// bytes starting at addr, paced at bytesPerSec, beginning at start. Each
// packet arrival generates one such burst — 24 cachelines for a 1514B
// frame, arriving within ~150ns at 40GbE rates (paper Sec. 4.1).
func TraceTransfer(start sim.Time, addr, bytes int64, write bool, bytesPerSec float64) []TraceEntry {
	if bytes <= 0 {
		return nil
	}
	lines := (bytes + addrmap.CachelineSize - 1) / addrmap.CachelineSize
	out := make([]TraceEntry, 0, lines)
	perLine := sim.Time(float64(addrmap.CachelineSize) / bytesPerSec * float64(sim.Second))
	for i := int64(0); i < lines; i++ {
		out = append(out, TraceEntry{
			Addr:  addr + i*addrmap.CachelineSize,
			At:    start + sim.Time(i)*perLine,
			Write: write,
		})
	}
	return out
}

// Device is the hardware-cost model of one NIC architecture, consumed by
// the driver models: how expensive are descriptor and packet movements
// between the NIC and the place packets live (host memory, LLC, or NetDIMM
// local DRAM).
type Device interface {
	// DoorbellCost is the driver's doorbell: one posted write to the
	// device's registers, its register bus's WriteCost() (I/O reg acc
	// component).
	DoorbellCost() sim.Time
	// DescriptorFetch is the NIC-side cost of reading one descriptor.
	DescriptorFetch() sim.Time
	// DescriptorWriteback is the NIC-side cost of updating ring state.
	DescriptorWriteback() sim.Time
	// PacketRead is the cost for the NIC to pull a TX packet of n bytes
	// out of its buffer location (txDMA).
	PacketRead(n int) sim.Time
	// PacketWrite is the cost for the NIC to push an RX packet of n bytes
	// into its buffer location (rxDMA).
	PacketWrite(n int) sim.Time
	// Name identifies the architecture ("dNIC", "iNIC", "NetDIMM").
	Name() string
}

// MACPipeline is the internal MAC/packet-processing pipeline latency every
// full-blown NIC pays per direction — identical for dNIC, iNIC and the
// nNIC inside a NetDIMM, since all three integrate the same class of
// Ethernet controller.
const MACPipeline = 200 * sim.Nanosecond

// DescriptorBatch is how many descriptors a NIC prefetches per ring read;
// the fetch round trip amortises across the batch.
const DescriptorBatch = 8

// DNIC is the conventional discrete PCIe NIC (paper Fig. 1 left): every
// descriptor batch fetch is a PCIe round trip and packet data crosses the
// link.
type DNIC struct {
	Link pcie.Link
	// HostMemLatency is the host-side memory/LLC access underneath a DMA
	// (the PCIe transaction terminates in the memory system).
	HostMemLatency sim.Time
}

// NewDNIC returns the Table 1 dNIC: x8 PCIe Gen4.
func NewDNIC() DNIC { return NewDNICWith(pcie.NewLink(pcie.Gen4, 8)) }

// NewDNICWith returns a dNIC attached over the given PCIe link — the
// constructor a derived system configuration uses.
func NewDNICWith(link pcie.Link) DNIC {
	return DNIC{Link: link, HostMemLatency: 50 * sim.Nanosecond}
}

// DoorbellCost implements Device.
func (d DNIC) DoorbellCost() sim.Time { return PCIeBus{Link: d.Link}.WriteCost() }

// DescriptorFetch implements Device: a non-posted batched read, amortised
// per descriptor.
func (d DNIC) DescriptorFetch() sim.Time {
	batch := d.Link.ReadRoundTrip(DescriptorBytes*DescriptorBatch) + d.HostMemLatency
	return batch / DescriptorBatch
}

// DescriptorWriteback implements Device: a posted descriptor update.
func (d DNIC) DescriptorWriteback() sim.Time { return d.Link.PostedWrite(DescriptorBytes) }

// PacketRead implements Device: DMA read across PCIe plus the MAC pipeline.
func (d DNIC) PacketRead(n int) sim.Time {
	return d.Link.DMARead(n) + d.HostMemLatency + MACPipeline
}

// PacketWrite implements Device: DMA write across PCIe (lands in LLC with
// DDIO, so no DRAM trip on top) plus the MAC pipeline.
func (d DNIC) PacketWrite(n int) sim.Time { return d.Link.DMAWrite(n) + MACPipeline }

// Name implements Device.
func (d DNIC) Name() string { return "dNIC" }

// INIC is a NIC integrated into the processor die (paper Fig. 1 middle):
// register and descriptor accesses are on-chip; packet data moves through
// the LLC.
type INIC struct {
	Bus OnChipBus
	// LLCLatency is the on-chip access to a descriptor or buffer line.
	LLCLatency sim.Time
	// LLCBandwidth paces packet-data movement through the cache.
	LLCBandwidth float64
}

// NewINIC returns the iNIC cost model.
func NewINIC() INIC {
	return INIC{
		Bus:          DefaultOnChipBus(),
		LLCLatency:   40 * sim.Nanosecond, // LLC + on-chip interconnect
		LLCBandwidth: 50e9,                // on-chip fill bandwidth
	}
}

// DoorbellCost implements Device.
func (i INIC) DoorbellCost() sim.Time { return i.Bus.WriteCost() }

// DescriptorFetch implements Device.
func (i INIC) DescriptorFetch() sim.Time { return i.LLCLatency }

// DescriptorWriteback implements Device.
func (i INIC) DescriptorWriteback() sim.Time { return i.LLCLatency }

// PacketRead implements Device: through the LLC plus the MAC pipeline.
func (i INIC) PacketRead(n int) sim.Time { return i.LLCLatency + i.stream(n) + MACPipeline }

// PacketWrite implements Device: through the LLC plus the MAC pipeline.
func (i INIC) PacketWrite(n int) sim.Time { return i.LLCLatency + i.stream(n) + MACPipeline }

func (i INIC) stream(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(float64(n) / i.LLCBandwidth * float64(sim.Second))
}

// Name implements Device.
func (i INIC) Name() string { return "iNIC" }
