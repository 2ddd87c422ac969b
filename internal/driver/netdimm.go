package driver

import (
	"fmt"

	"netdimm/internal/core"
	"netdimm/internal/dram"
	"netdimm/internal/kalloc"
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
)

// NetDIMMDriver implements the paper's Algorithm 1 over a core.Device: DMA
// buffers come from the allocCache with sub-array affinity, TX coherency is
// enforced with cache-flush instructions, RX uses descriptor invalidation,
// in-memory cloning replaces driver copies, and a polling agent watches the
// RX ring over the memory channel.
//
// The driver is event-driven where the device is stateful (DMA through the
// nMC, nCache, cloning) and analytic for pure CPU costs. Each TX/RX call
// runs the device engine to completion, so per-call results reflect the
// device's current bank and cache state.
type NetDIMMDriver struct {
	Eng   *sim.Engine
	Dev   *core.Device
	Zone  *kalloc.Zone
	Cache *kalloc.AllocCache
	Costs Costs
	// Rec, if non-nil, records every driver phase as a lifecycle span (see
	// HWDriver.Rec); nil keeps the uninstrumented path.
	Rec *obs.Recorder

	// CopyNeeded forces Alg. 1's slow path: the SKB lives outside the
	// NetDIMM zone and must be CPU-copied into a DMA buffer first (used
	// for connection-establishment packets and zone-exhaustion fallback).
	CopyNeeded bool

	txRing *nic.Ring
	rxRing *nic.Ring
	// appBuf is the steady-state application buffer page in the NetDIMM
	// zone (skb_zone == NET_i after the first packet, Sec. 4.2.2).
	appBuf int64

	stats DriverStats

	// end is the instant the device last reported the timed operation
	// done and mode the mode of the last clone; the method values below
	// write them, bound on the first operation (see begin).
	end          sim.Time
	mode         dram.CloneMode
	doneFn       func()
	cloneDoneFn  func(dram.CloneMode)
	headerDoneFn func(hit bool, latency sim.Time)
}

// DriverStats counts NetDIMM driver events.
type DriverStats struct {
	TxFast, TxSlow  uint64
	RxPackets       uint64
	AllocFast       uint64
	AllocSlow       uint64
	ClonesFPM       uint64
	ClonesOther     uint64
	HeaderCacheHits uint64
	HeaderCacheMiss uint64
	// PollMisses counts polling-agent reads that found no pending packet.
	PollMisses uint64
	// TxCleaned counts TX descriptors reclaimed by the polling agent
	// (Alg. 1 line 17: "clean TX buffers after a successful transmission").
	TxCleaned uint64
	// ZoneExhausted counts received packets that found the NET_i zone
	// without a free page for their DMA or SKB buffer, once per packet;
	// the DMA buffer then falls back to the app buffer and the SKB buffer
	// to the DMA buffer — the rare event the COPY_NEEDED flag also guards
	// (paper Sec. 4.2.2).
	ZoneExhausted uint64
}

// NewNetDIMMDriver wires a driver to a device and its NET_i zone. Ring
// descriptors and the steady-state application buffer are allocated from
// the zone (paper Sec. 4.2.2: descriptor rings must live on the NetDIMM).
func NewNetDIMMDriver(eng *sim.Engine, dev *core.Device, zone *kalloc.Zone, costs Costs) (*NetDIMMDriver, error) {
	ac, err := kalloc.NewAllocCache(zone, 2)
	if err != nil {
		return nil, err
	}
	txPage, err := zone.AllocPage()
	if err != nil {
		return nil, fmt.Errorf("driver: tx ring: %w", err)
	}
	rxPage, err := zone.AllocPage()
	if err != nil {
		return nil, fmt.Errorf("driver: rx ring: %w", err)
	}
	app, err := zone.AllocPage()
	if err != nil {
		return nil, fmt.Errorf("driver: app buffer: %w", err)
	}
	return &NetDIMMDriver{
		Eng:    eng,
		Dev:    dev,
		Zone:   zone,
		Cache:  ac,
		Costs:  costs,
		txRing: nic.NewRing("tx", txPage, 256),
		rxRing: nic.NewRing("rx", rxPage, 256),
		appBuf: app,
	}, nil
}

// Name implements Machine.
func (d *NetDIMMDriver) Name() string { return "NetDIMM" }

// Stats returns a copy of the driver counters.
func (d *NetDIMMDriver) Stats() DriverStats { return d.stats }

// local converts a zone physical address to the device-local offset.
func (d *NetDIMMDriver) local(phys int64) int64 { return phys - d.Zone.Base }

// add accumulates one named phase into breakdown component c and, when a
// recorder is attached, records it as a lifecycle span (see HWDriver.add).
func (d *NetDIMMDriver) add(b *stats.Breakdown, c stats.Component, phase string, t sim.Time) {
	b.Add(c, t)
	if d.Rec != nil { // naming the span costs more than the phase itself
		d.Rec.Advance(c.String(), phase, t)
	}
}

// TX implements Machine, following Alg. 1 lines 1–10.
func (d *NetDIMMDriver) TX(p nic.Packet) stats.Breakdown {
	var b stats.Breakdown
	bus := d.Dev.RegisterBus()

	// Line 2: txDesc[next].dma = allocCache[txSKB.data]. The lookup always
	// runs; only the slow path consumes the page (on the fast path the
	// descriptor points at the SKB data, which already lives in the zone).
	d.add(&b, stats.TxCopy, "skb+allocLookup+desc", d.Costs.SKBAlloc+d.Costs.AllocCacheLookup+d.Costs.DescWrite)

	dmaBuf := d.appBuf
	if d.CopyNeeded {
		// Lines 3–6, slow path: allocate a DMA buffer, CPU-copy the SKB
		// into it, then flush the buffer to memory.
		d.stats.TxSlow++
		buf, fast, err := d.Cache.Get(kalloc.NoHint)
		if err == nil {
			dmaBuf = buf
			defer d.Cache.Release(buf)
		}
		if fast {
			d.stats.AllocFast++
		} else {
			d.stats.AllocSlow++
			d.add(&b, stats.TxCopy, "slowAllocPages", d.Costs.SlowAllocPages)
		}
		d.add(&b, stats.TxCopy, "cpuCopy", d.Costs.CopyTime(p.Size))
		d.add(&b, stats.TxFlush, "bufFlush", d.Costs.FlushTime(p.Size))
	} else {
		// Line 8, fast path: the SKB already lives in the NetDIMM zone;
		// flush its cachelines so the nNIC reads fresh data.
		d.stats.TxFast++
		d.stats.AllocFast++
		d.add(&b, stats.TxFlush, "bufFlush", d.Costs.FlushTime(p.Size))
	}
	// Lines 9–10: set and flush size+flags — the 64-bit posted write that
	// kicks off transmission, travelling the memory channel.
	d.txRing.Push(nic.Descriptor{BufAddr: dmaBuf, Len: p.Size, Owned: true})
	d.add(&b, stats.TxFlush, "descFlush", d.Costs.FlushTime(nic.DescriptorBytes))
	d.add(&b, stats.IOReg, "sizeWrite", bus.WriteCost())

	// nController fetches the packet from local DRAM into the nNIC; the
	// nNIC then runs the same MAC pipeline as any full-blown NIC.
	start := d.begin()
	// The fetch fails only on a non-positive size. It then queues nothing,
	// and wait ends at the engine's clock as for any unreported operation.
	_ = d.Dev.TransmitFetch(d.local(dmaBuf), p.Size, d.doneFn)
	d.add(&b, stats.TxDMA, "fetch+macPipeline", nic.MACPipeline+d.wait(start))

	// The nNIC completed the fetch: mark the descriptor done for the
	// polling agent, which reclaims the ring once it is half full (Alg. 1
	// line 17), so the ring never fills.
	d.txRing.MarkDone()
	if d.txRing.Len() >= d.txRing.Cap()/2 {
		d.cleanTxRing()
	}
	return b
}

// cleanTxRing reclaims completed TX descriptors (Alg. 1 line 17).
func (d *NetDIMMDriver) cleanTxRing() {
	for !d.txRing.Empty() {
		if desc, _ := d.txRing.Peek(); !desc.Done {
			break
		}
		d.txRing.Pop()
		d.stats.TxCleaned++
	}
}

// RX implements Machine, following Alg. 1 lines 11–19.
func (d *NetDIMMDriver) RX(p nic.Packet) stats.Breakdown {
	var b stats.Breakdown
	bus := d.Dev.RegisterBus()
	d.stats.RxPackets++

	// The nNIC delivers the frame into an RX DMA buffer in local DRAM; the
	// first cacheline (the header) lands in nCache (paper Sec. 4.1).
	rxBuf, _, err := d.Cache.Get(kalloc.NoHint)
	exhausted := err != nil
	if exhausted {
		rxBuf = d.appBuf
	}
	start := d.begin()
	// As for the TX fetch: the delivery fails only on a non-positive size
	// (rxBuf lies in the zone) and then queues nothing.
	_ = d.Dev.ReceivePacket(d.local(rxBuf), p.Size, d.doneFn)
	d.add(&b, stats.RxDMA, "macPipeline+deliver", nic.MACPipeline+d.wait(start))
	// The nController filled the next RX descriptor.
	d.rxRing.Push(nic.Descriptor{BufAddr: rxBuf, Len: p.Size, Done: true})

	// Lines 16–18: the polling agent notices the arrival — one RegStatus
	// read over the memory channel ("polling NetDIMM is more efficient
	// than polling a PCIe NIC").
	rf := d.Dev.Registers()
	if st, err := rf.Read(core.RegStatus); err != nil || st&0xffffffff == 0 {
		d.stats.PollMisses++
	}
	rf.AckRX()
	d.add(&b, stats.IOReg, "pollStatus", bus.ReadCost())

	// Line 12: invalidate rxDesc to fetch fresh descriptor data, then
	// re-read it over the channel.
	d.add(&b, stats.RxInvalidate, "descInvalidate", d.Costs.FlushTime(nic.DescriptorBytes))
	d.add(&b, stats.IOReg, "descReread", bus.ReadCost())

	// Line 13: rxSKB.data = allocCache[rxDesc.dma] — sub-array affine so
	// the clone below runs in FPM.
	alloc := d.Costs.AllocCacheLookup
	skbBuf, fast, err := d.Cache.Get(rxBuf)
	if err != nil {
		skbBuf, fast = rxBuf, false
		exhausted = true
	}
	if exhausted {
		d.stats.ZoneExhausted++
	}
	if fast {
		d.stats.AllocFast++
	} else {
		d.stats.AllocSlow++
		alloc += d.Costs.SlowAllocPages
	}
	d.add(&b, stats.RxCopy, "skb+allocLookup", d.Costs.SKBAlloc+alloc)

	// Line 14: netdimmClone(rxSKB.data, rxDesc.dma, size). The CPU writes
	// dst/src/size into the NetDIMM register file (one posted line write);
	// the size write kicks the in-memory clone engine.
	d.add(&b, stats.IOReg, "cloneRegs", bus.WriteCost())
	start = d.begin()
	d.mode = dram.FPM // a clone that never starts counts as FPM
	rf.Write(core.RegCloneSrc, uint64(d.local(rxBuf)))
	rf.Write(core.RegCloneDst, uint64(d.local(skbBuf)))
	rf.OnCloneDone = d.cloneDoneFn
	if err := rf.Write(core.RegCloneSize, uint64(p.Size)); err != nil {
		rf.OnCloneDone = nil
		d.done()
	}
	cloneLat := d.wait(start)
	if d.mode == dram.FPM {
		d.stats.ClonesFPM++
	} else {
		d.stats.ClonesOther++
	}
	d.add(&b, stats.RxCopy, "clone", cloneLat)

	// Line 15: the stack processes the header — read from the DMA buffer,
	// which hits nCache (header caching).
	start = d.begin()
	d.Dev.HostReadLine(d.local(rxBuf), d.headerDoneFn)
	d.add(&b, stats.RxCopy, "headerRead", d.wait(start))

	// The descriptor is consumed; return the slot to the ring.
	d.rxRing.Pop()

	// Buffers recycle: the DMA buffer returns to the cache's zone, the SKB
	// buffer is handed to the application (freed later, off the critical
	// path). On an exhausted zone the app buffer stood in for the DMA
	// buffer; it stays the driver's.
	if rxBuf != d.appBuf {
		d.Cache.Release(rxBuf)
	}
	if skbBuf != rxBuf {
		d.Cache.Release(skbBuf)
	}
	return b
}

// begin starts timing an event-driven device operation and returns its
// start instant for wait. The operation reports completion through the
// driver's method values, which begin binds on the first operation.
func (d *NetDIMMDriver) begin() sim.Time {
	if d.doneFn == nil {
		d.doneFn = d.done
		d.cloneDoneFn = d.cloneDone
		d.headerDoneFn = d.headerDone
	}
	d.end = 0
	return d.Eng.Now()
}

// wait runs the operation begun at start to completion on the driver's
// engine and returns its duration: up to the device's last completion
// report, or to the engine's final instant if that report (0 when none
// came) is before start.
func (d *NetDIMMDriver) wait(start sim.Time) sim.Time {
	d.Eng.Run()
	if d.end < start {
		d.end = d.Eng.Now()
	}
	return d.end - start
}

// done records a completion report at the current instant.
func (d *NetDIMMDriver) done() { d.end = d.Eng.Now() }

// cloneDone is the register file's clone-completion callback.
func (d *NetDIMMDriver) cloneDone(m dram.CloneMode) {
	d.mode = m
	d.Dev.Registers().OnCloneDone = nil
	d.done()
}

// headerDone completes the header read, counting whether it hit nCache.
func (d *NetDIMMDriver) headerDone(hit bool, _ sim.Time) {
	if hit {
		d.stats.HeaderCacheHits++
	} else {
		d.stats.HeaderCacheMiss++
	}
	d.done()
}
