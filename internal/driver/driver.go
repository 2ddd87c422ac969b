// Package driver models the network software stack at the event level for
// each NIC architecture: the polled baseline driver of a discrete PCIe NIC
// (dNIC, paper Sec. 2.1 steps T1–T4 / R0–R5), its zero-copy variant, the
// integrated-NIC (iNIC) driver, and the NetDIMM driver of Algorithm 1 with
// allocCache-backed DMA-buffer allocation, cache flush/invalidate
// coherency, and in-memory buffer cloning.
//
// Every path produces a stats.Breakdown with the Fig. 11 components, so
// the latency experiments can report exactly the paper's decomposition.
package driver

import (
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
)

// Costs holds the CPU-side software constants shared by all drivers. They
// model a bare-metal, polling driver (the paper implements bare-metal gem5
// drivers because "the overhead of Linux kernel software stack fades the
// latency improvements", Sec. 5.1).
type Costs struct {
	// SKBAlloc is socket-buffer allocation and initialisation.
	SKBAlloc sim.Time
	// CopyFixed is the fixed cost of one driver memory copy (loop setup,
	// cache misses on the first lines).
	CopyFixed sim.Time
	// CopyBytesPerSec paces the size-dependent part of driver copies.
	CopyBytesPerSec float64
	// PollCheck is one polling-loop iteration on a host-memory status
	// word (LLC hit).
	PollCheck sim.Time
	// DescWrite is the CPU cost of composing a descriptor.
	DescWrite sim.Time
	// ZcpyPin is the per-packet page pin/unpin and buffer-management
	// overhead a zero-copy driver pays instead of copying (paper Sec. 3,
	// limitation L1).
	ZcpyPin sim.Time
	// AllocCacheLookup is the NetDIMM driver's allocCache hash probe.
	AllocCacheLookup sim.Time
	// SlowAllocPages is __alloc_netdimm_pages on the allocCache miss path.
	SlowAllocPages sim.Time
	// FlushBase/FlushPerLine parameterise clwb/clflush loops (txFlush and
	// rxInvalidate in Alg. 1).
	FlushBase    sim.Time
	FlushPerLine sim.Time
}

// DefaultCosts returns constants calibrated so the Fig. 4 / Fig. 11 shapes
// hold (see DESIGN.md Sec. 5 and EXPERIMENTS.md for the calibration).
func DefaultCosts() Costs {
	return Costs{
		SKBAlloc:         120 * sim.Nanosecond,
		CopyFixed:        260 * sim.Nanosecond,
		CopyBytesPerSec:  6e9, // cold-destination memcpy through the cache
		PollCheck:        20 * sim.Nanosecond,
		DescWrite:        20 * sim.Nanosecond,
		ZcpyPin:          100 * sim.Nanosecond,
		AllocCacheLookup: 30 * sim.Nanosecond,
		SlowAllocPages:   400 * sim.Nanosecond,
		FlushBase:        30 * sim.Nanosecond,
		FlushPerLine:     5 * sim.Nanosecond,
	}
}

// CopyTime returns the modelled driver memcpy cost for n bytes.
func (c Costs) CopyTime(n int) sim.Time {
	if n <= 0 {
		return c.CopyFixed
	}
	return c.CopyFixed + sim.Time(float64(n)/c.CopyBytesPerSec*float64(sim.Second))
}

// FlushTime returns the cost of flushing or invalidating n bytes worth of
// cachelines.
func (c Costs) FlushTime(n int) sim.Time {
	lines := (n + 63) / 64
	if lines < 1 {
		lines = 1
	}
	return c.FlushBase + sim.Time(lines)*c.FlushPerLine
}

// Machine is one server endpoint: it can transmit a packet onto the wire
// and receive one from the wire, reporting the latency decomposition.
type Machine interface {
	// TX returns the breakdown of driver + NIC work from the application's
	// send call until the first bit is on the wire.
	TX(p nic.Packet) stats.Breakdown
	// RX returns the breakdown from last bit off the wire until the packet
	// is delivered to the upper network layer.
	RX(p nic.Packet) stats.Breakdown
	// Name identifies the configuration (dNIC, dNIC.zcpy, iNIC, ...).
	Name() string
}

// HWDriver is the baseline polled driver over a conventional NIC Device
// (dNIC or iNIC), optionally with zero-copy buffers.
type HWDriver struct {
	Dev      nic.Device
	Costs    Costs
	ZeroCopy bool
	// Rec, if non-nil, records every driver phase as a lifecycle span on
	// the per-component tracks of an observability cell (see obs.Recorder).
	// Nil — the default — keeps TX/RX purely analytic.
	Rec *obs.Recorder
}

// add accumulates one named phase into breakdown component c and, when a
// recorder is attached, lays the phase down as a span on the component's
// track. Track sums therefore equal breakdown components by construction.
func (d *HWDriver) add(b *stats.Breakdown, c stats.Component, phase string, t sim.Time) {
	b.Add(c, t)
	if d.Rec != nil { // naming the span costs more than the phase itself
		d.Rec.Advance(c.String(), phase, t)
	}
}

// Name implements Machine.
func (d *HWDriver) Name() string {
	if d.ZeroCopy {
		return d.Dev.Name() + ".zcpy"
	}
	return d.Dev.Name()
}

// TX implements Machine: steps T1–T3 of Sec. 2.1 (T4's wire time belongs
// to the fabric).
func (d *HWDriver) TX(p nic.Packet) stats.Breakdown {
	var b stats.Breakdown
	// T1: the transmit function checks NIC state. A polled bare-metal
	// driver tracks the ring tail locally, so this is a cheap host-memory
	// check; the expensive device-register traffic is the doorbell below.
	d.add(&b, stats.IOReg, "pollCheck", d.Costs.PollCheck)
	// T2: build the SKB, stage the data, write the descriptor, ring the
	// doorbell.
	if d.ZeroCopy {
		d.add(&b, stats.TxCopy, "skb+pin+desc", d.Costs.SKBAlloc+d.Costs.ZcpyPin+d.Costs.DescWrite)
	} else {
		d.add(&b, stats.TxCopy, "skb+copy+desc", d.Costs.SKBAlloc+d.Costs.CopyTime(p.Size)+d.Costs.DescWrite)
	}
	d.add(&b, stats.IOReg, "doorbell", d.Dev.DoorbellCost())
	// T3: the NIC fetches the descriptor and DMAs the packet out.
	d.add(&b, stats.TxDMA, "descFetch+packetRead", d.Dev.DescriptorFetch()+d.Dev.PacketRead(p.Size))
	return b
}

// RX implements Machine: steps R1–R5 of Sec. 2.1.
func (d *HWDriver) RX(p nic.Packet) stats.Breakdown {
	var b stats.Breakdown
	// R1–R3: descriptor fetch, packet DMA into the host, ring update.
	d.add(&b, stats.RxDMA, "descFetch+packetWrite+wb", d.Dev.DescriptorFetch()+d.Dev.PacketWrite(p.Size)+d.Dev.DescriptorWriteback())
	// R4: the polling driver notices the updated descriptor in host
	// memory.
	d.add(&b, stats.IOReg, "pollCheck", d.Costs.PollCheck)
	// R5: SKB creation and payload landing in the application buffer.
	if d.ZeroCopy {
		d.add(&b, stats.RxCopy, "skb+pin", d.Costs.SKBAlloc+d.Costs.ZcpyPin)
	} else {
		d.add(&b, stats.RxCopy, "skb+copy", d.Costs.SKBAlloc+d.Costs.CopyTime(p.Size))
	}
	return b
}

// PCIeShare returns the fraction of a one-way latency attributable to the
// PCIe interconnect for this driver (the pcie.overh series of Fig. 4).
// Only meaningful for dNIC configurations; returns 0 for on-chip devices.
func (d *HWDriver) PCIeShare(p nic.Packet, total sim.Time) float64 {
	dn, ok := d.Dev.(nic.DNIC)
	if !ok || total == 0 {
		return 0
	}
	pcieTime := dn.DoorbellCost() +
		2*dn.DescriptorFetch() + // amortised batched descriptor fetches
		dn.Link.DMARead(p.Size) + dn.Link.DMAWrite(p.Size) + // payload
		dn.Link.PostedWrite(nic.DescriptorBytes) // ring update
	return float64(pcieTime) / float64(total)
}
