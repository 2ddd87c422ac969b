package driver

import (
	"fmt"
	"testing"

	"netdimm/internal/addrmap"
	"netdimm/internal/core"
	"netdimm/internal/dram"
	"netdimm/internal/kalloc"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
)

// This file keeps the NetDIMM driver step chain that begin/wait and the
// bound completion methods replaced — measure(op func(done func())) with
// an op closure, a done closure and an escaping end per device operation,
// and a fresh OnCloneDone and HostReadLine callback per packet — as the
// reference the allocation-free chain must match event for event.

// closureMeasure runs an event-driven device operation to completion on
// the driver's engine and returns its duration.
func closureMeasure(d *NetDIMMDriver, op func(done func())) sim.Time {
	start := d.Eng.Now()
	var end sim.Time
	op(func() { end = d.Eng.Now() })
	d.Eng.Run()
	if end < start {
		end = d.Eng.Now()
	}
	return end - start
}

func closureTX(d *NetDIMMDriver, p nic.Packet) stats.Breakdown {
	var b stats.Breakdown
	bus := d.Dev.RegisterBus()
	d.add(&b, stats.TxCopy, "skb+allocLookup+desc", d.Costs.SKBAlloc+d.Costs.AllocCacheLookup+d.Costs.DescWrite)
	dmaBuf := d.appBuf
	if d.CopyNeeded {
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
		d.stats.TxFast++
		d.stats.AllocFast++
		d.add(&b, stats.TxFlush, "bufFlush", d.Costs.FlushTime(p.Size))
	}
	d.add(&b, stats.TxFlush, "descFlush", d.Costs.FlushTime(nic.DescriptorBytes))
	d.add(&b, stats.IOReg, "sizeWrite", bus.WriteCost())
	d.add(&b, stats.TxDMA, "fetch+macPipeline", nic.MACPipeline+closureMeasure(d, func(done func()) {
		d.Dev.TransmitFetch(d.local(dmaBuf), p.Size, done)
	}))
	if d.txPending++; d.txPending == txReclaimBatch {
		d.stats.TxCleaned += txReclaimBatch
		d.txPending = 0
	}
	return b
}

func closureRX(d *NetDIMMDriver, p nic.Packet) stats.Breakdown {
	var b stats.Breakdown
	bus := d.Dev.RegisterBus()
	d.stats.RxPackets++
	rxBuf, _, err := d.Cache.Get(kalloc.NoHint)
	exhausted := err != nil
	if exhausted {
		rxBuf = d.appBuf
	}
	d.add(&b, stats.RxDMA, "macPipeline+deliver", nic.MACPipeline+closureMeasure(d, func(done func()) {
		d.Dev.ReceivePacket(d.local(rxBuf), p.Size, done)
	}))
	rf := d.Dev.Registers()
	if st, err := rf.Read(core.RegStatus); err != nil || st&0xffffffff == 0 {
		d.stats.PollMisses++
	}
	rf.AckRX()
	d.add(&b, stats.IOReg, "pollStatus", bus.ReadCost())
	d.add(&b, stats.RxInvalidate, "descInvalidate", d.Costs.FlushTime(nic.DescriptorBytes))
	d.add(&b, stats.IOReg, "descReread", bus.ReadCost())
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
	d.add(&b, stats.IOReg, "cloneRegs", bus.WriteCost())
	var mode dram.CloneMode
	cloneLat := closureMeasure(d, func(done func()) {
		rf.Write(core.RegCloneSrc, uint64(d.local(rxBuf)))
		rf.Write(core.RegCloneDst, uint64(d.local(skbBuf)))
		rf.OnCloneDone = func(m dram.CloneMode) {
			mode = m
			rf.OnCloneDone = nil
			done()
		}
		if err := rf.Write(core.RegCloneSize, uint64(p.Size)); err != nil {
			rf.OnCloneDone = nil
			done()
		}
	})
	if mode == dram.FPM {
		d.stats.ClonesFPM++
	} else {
		d.stats.ClonesOther++
	}
	d.add(&b, stats.RxCopy, "clone", cloneLat)
	d.add(&b, stats.RxCopy, "headerRead", closureMeasure(d, func(done func()) {
		d.Dev.HostReadLine(d.local(rxBuf), func(hit bool, lat sim.Time) {
			if hit {
				d.stats.HeaderCacheHits++
			} else {
				d.stats.HeaderCacheMiss++
			}
			done()
		})
	}))
	if rxBuf != d.appBuf {
		d.Cache.Release(rxBuf)
	}
	if skbBuf != rxBuf {
		d.Cache.Release(skbBuf)
	}
	return b
}

// floodNCache inserts eight lines per nCache line at the top of the
// device, so random replacement evicts nearly every resident line —
// among them a header that arrived but has not been read yet.
func floodNCache(dev *core.Device) {
	nc := dev.NCache()
	n := 8 * int64(core.DefaultConfig().NCacheLines)
	base := dev.Size() - n*addrmap.CachelineSize
	for i := int64(0); i < n; i++ {
		nc.Insert(base+i*addrmap.CachelineSize, false, false)
	}
}

// endpointState is everything observable about one NetDIMM endpoint.
type endpointState struct {
	Driver DriverStats
	Device core.Stats
	NCache core.NCacheStats
	Now    sim.Time
	Fired  uint64
}

func stateOf(d *NetDIMMDriver) endpointState {
	return endpointState{d.Stats(), d.Dev.Stats(), d.Dev.NCache().Stats(), d.Eng.Now(), d.Eng.Fired()}
}

// pair is one TX→RX endpoint pair.
type pair struct{ tx, rx *NetDIMMDriver }

func newPair(t *testing.T, seed uint64, exhausted bool) pair {
	t.Helper()
	var p pair
	var err error
	if p.tx, err = NewNetDIMMMachine(seed); err != nil {
		t.Fatal(err)
	}
	if p.rx, err = NewNetDIMMMachine(seed + 1); err != nil {
		t.Fatal(err)
	}
	if exhausted {
		exhaustZone(t, p.tx)
		exhaustZone(t, p.rx)
	}
	return p
}

// TestStepChainMatchesClosureChain drives the driver and the closure
// reference, each on its own endpoint pair, with the same random packet
// sequences and requires identical breakdowns, driver, device and nCache
// counters, engine clocks and fired-event counts. The sequences mix sizes
// from 64 B to 9000 B (above 4 KiB a transfer has more lines than the nMC
// queue holds, and the rest wait), CopyNeeded sends, headers evicted
// between delivery and the header read, and, in one case, zones with no
// free page.
func TestStepChainMatchesClosureChain(t *testing.T) {
	var txOverCap, txSlow, headerMiss, exhaustedRX uint64
	queueCap := core.DefaultConfig().MC.ReadQueueCap
	for c := 0; c < 4; c++ {
		exhausted := c == 3
		t.Run(fmt.Sprintf("case%d", c), func(t *testing.T) {
			rng := sim.NewRand(uint64(100 + c))
			seed := uint64(10 * (c + 1))
			got, want := newPair(t, seed, exhausted), newPair(t, seed, exhausted)
			for i := 0; i < 150; i++ {
				size := rng.Range(64, 9000)
				if rng.Intn(3) == 0 {
					size = rng.Range(64, 1514)
				}
				p := nic.Packet{ID: uint64(i), Size: size}
				if (int64(size)+addrmap.CachelineSize-1)/addrmap.CachelineSize > int64(queueCap) {
					txOverCap++
				}
				copyNeeded := rng.Intn(4) == 0
				evict := rng.Intn(5) == 0

				got.tx.CopyNeeded, want.tx.CopyNeeded = copyNeeded, copyNeeded
				gb, wb := got.tx.TX(p), closureTX(want.tx, p)
				if gb != wb {
					t.Fatalf("packet %d (%d B): TX breakdown %v, reference %v", i, size, gb, wb)
				}
				if evict {
					got.rx.Eng.Schedule(1, func() { floodNCache(got.rx.Dev) })
					want.rx.Eng.Schedule(1, func() { floodNCache(want.rx.Dev) })
				}
				gb, wb = got.rx.RX(p), closureRX(want.rx, p)
				if gb != wb {
					t.Fatalf("packet %d (%d B): RX breakdown %v, reference %v", i, size, gb, wb)
				}
				for side, ds := range [2][2]*NetDIMMDriver{{got.tx, want.tx}, {got.rx, want.rx}} {
					if g, w := stateOf(ds[0]), stateOf(ds[1]); g != w {
						t.Fatalf("packet %d (%d B), endpoint %d:\n got       %+v\n reference %+v", i, size, side, g, w)
					}
				}
			}
			txSlow += got.tx.Stats().TxSlow
			if !exhausted { // an exhausted receive clones onto its own header
				headerMiss += got.rx.Stats().HeaderCacheMiss
			}
			exhaustedRX += got.rx.Stats().ZoneExhausted
		})
	}
	// The sequences must reach every case they are meant to cover.
	if !t.Failed() && (txOverCap == 0 || txSlow == 0 || headerMiss == 0 || exhaustedRX == 0) {
		t.Fatalf("uncovered case: TX transfers over the nMC queue cap %d, CopyNeeded sends %d, evicted-header misses %d, exhausted receives %d",
			txOverCap, txSlow, headerMiss, exhaustedRX)
	}
}
