package nic

import (
	"netdimm/internal/nvdimmp"
	"netdimm/internal/pcie"
	"netdimm/internal/sim"
)

// RegisterBus abstracts where a NIC's configuration/doorbell registers
// live. The cost of touching them is the paper's "I/O reg acc" latency
// component (Fig. 11), and it differs radically by attachment: a PCIe NIC
// pays a full non-posted round trip to read a register; an integrated NIC
// pays an on-chip access; a NetDIMM pays a memory-channel access.
type RegisterBus interface {
	// ReadCost is the latency of reading one device register.
	ReadCost() sim.Time
	// WriteCost is the latency until a (posted) register write is visible
	// at the device.
	WriteCost() sim.Time
	// Name identifies the attachment for reports.
	Name() string
}

// PCIeBus: registers behind a PCIe link (dNIC).
type PCIeBus struct{ Link pcie.Link }

// UCWriteStall is the CPU-visible cost of retiring an uncacheable MMIO
// doorbell write beyond the wire time: strongly-ordered UC stores drain the
// store buffer and stall the pipeline.
const UCWriteStall = 150 * sim.Nanosecond

// ReadCost implements RegisterBus: a 4B non-posted read round trip.
func (b PCIeBus) ReadCost() sim.Time { return b.Link.ReadRoundTrip(4) }

// WriteCost implements RegisterBus: an 8B posted write plus the UC-store
// pipeline stall.
func (b PCIeBus) WriteCost() sim.Time { return b.Link.PostedWrite(8) + UCWriteStall }

// Name implements RegisterBus.
func (b PCIeBus) Name() string { return b.Link.String() }

// OnChipBus: registers on the processor die (iNIC). Costs are a handful of
// core cycles plus on-chip interconnect.
type OnChipBus struct {
	Read  sim.Time
	Write sim.Time
}

// DefaultOnChipBus returns iNIC register costs: tens of cycles at 3.4GHz.
func DefaultOnChipBus() OnChipBus {
	return OnChipBus{Read: 20 * sim.Nanosecond, Write: 10 * sim.Nanosecond}
}

// ReadCost implements RegisterBus.
func (b OnChipBus) ReadCost() sim.Time { return b.Read }

// WriteCost implements RegisterBus.
func (b OnChipBus) WriteCost() sim.Time { return b.Write }

// Name implements RegisterBus.
func (b OnChipBus) Name() string { return "on-chip" }

// MemChannelBus: registers reached over a DDR5 memory channel with the
// NVDIMM-P asynchronous protocol (NetDIMM). "Polling NetDIMM is more
// efficient than polling a PCIe NIC as accessing I/O registers on a
// NetDIMM is much faster" (paper Sec. 4.2.2).
type MemChannelBus struct {
	Protocol nvdimmp.Timing
	// Media is the device-side latency to produce the register value (the
	// nController answers from its own SRAM, not DRAM).
	Media sim.Time
}

// ReadCost implements RegisterBus: an asynchronous XRD/RDY/SEND read.
func (b MemChannelBus) ReadCost() sim.Time { return b.Protocol.ReadLatency(b.Media) }

// WriteCost implements RegisterBus: an asynchronous posted write.
func (b MemChannelBus) WriteCost() sim.Time { return b.Protocol.WriteOverhead() + b.Media }

// Name implements RegisterBus.
func (b MemChannelBus) Name() string { return "memory-channel" }
