package core

import (
	"fmt"

	"netdimm/internal/addrmap"
	"netdimm/internal/dram"
	"netdimm/internal/memctrl"
	"netdimm/internal/nic"
	"netdimm/internal/nvdimmp"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
)

// Config parameterises a NetDIMM buffer device.
type Config struct {
	// Ranks of local DRAM (16GB NetDIMM = two 8GB ranks, Fig. 9a).
	Ranks int
	// LocalTiming is the DRAM timing of the local modules; the local
	// channel is what the nMC drives.
	LocalTiming dram.Timing
	// MC configures the nMC.
	MC memctrl.Config
	// NCacheLines / NCacheWays give the SRAM buffer geometry.
	NCacheLines int
	NCacheWays  int
	// PrefetchDegree is the nPrefetcher's next-line depth n.
	PrefetchDegree int
	// Clone parameterises the RowClone engine.
	Clone dram.CloneTiming
	// Protocol is the NVDIMM-P asynchronous channel timing.
	Protocol nvdimmp.Timing
	// SRAMLatency is the nCache access time (hit service).
	SRAMLatency sim.Time
	// Seed drives the random-replacement stream.
	Seed uint64
}

// DefaultConfig returns a 16GB NetDIMM with a 32KB nCache and a
// four-line-deep next-line prefetcher.
func DefaultConfig() Config {
	return Config{
		Ranks:          2,
		LocalTiming:    dram.DDR4_2400(),
		MC:             memctrl.DefaultConfig(),
		NCacheLines:    512,
		NCacheWays:     8,
		PrefetchDegree: 4,
		Clone:          dram.DefaultCloneTiming(),
		Protocol:       nvdimmp.DefaultTiming(),
		SRAMLatency:    5 * sim.Nanosecond,
		Seed:           1,
	}
}

// Stats aggregates device-level counters.
type Stats struct {
	HostReads             uint64
	NNICReads, NNICWrites uint64
	Prefetches            uint64
	Clones                [dram.NumCloneModes]uint64 // indexed by mode
}

// Device is one NetDIMM buffer device plus its local DRAM: the nController
// logic, nCache, nPrefetcher, nMC and clone engine of Fig. 6a. Addresses
// are DIMM-local (the system map's NetDIMM region offset).
type Device struct {
	cfg     Config
	eng     *sim.Engine
	nmc     *memctrl.Controller
	ranks   *memctrl.RankSet
	ncache  *NCache
	clones  *dram.CloneEngine
	bus     nic.MemChannelBus
	regfile *RegisterFile
	stats   Stats

	// hits delivers nCache-hit read completions: every hit takes the same
	// protocol read of an SRAM access, so they wait in one delay line.
	hits sim.DelayLine[hitRead]
	// fillFn is d.fill, the nPrefetcher's line-fill completion, bound on
	// the first prefetch.
	fillFn func(memctrl.Response)
}

// hitRead is one HostReadLine completion waiting out the nCache-hit
// latency.
type hitRead struct {
	done    func(hit bool, latency sim.Time)
	latency sim.Time
}

// NewDevice builds a NetDIMM device on the engine.
func NewDevice(eng *sim.Engine, cfg Config) *Device {
	if cfg.Ranks <= 0 {
		panic("core: NetDIMM needs at least one rank")
	}
	ranks := memctrl.NewRankSet(cfg.LocalTiming, cfg.Ranks)
	d := &Device{
		cfg:    cfg,
		eng:    eng,
		ranks:  ranks,
		nmc:    memctrl.New(eng, cfg.MC, ranks),
		ncache: NewNCache(cfg.NCacheLines, cfg.NCacheWays, cfg.Seed),
		clones: dram.NewCloneEngine(cfg.Clone, cfg.LocalTiming, ranks.Ranks),
		bus:    nic.MemChannelBus{Protocol: cfg.Protocol, Media: 15 * sim.Nanosecond},
	}
	d.hits.Init(eng, cfg.Protocol.ReadLatency(cfg.SRAMLatency), func(h hitRead) { h.done(true, h.latency) })
	return d
}

// Observe wires the device's observability hooks into cell c: the nMC gets
// a transaction-span track (prefix+"/nmc") and a read-queue-depth series
// (prefix+".nmc.readq"), and every local rank samples busy-bank occupancy
// (prefix+".rank<i>.busyBanks"). A nil cell — or a cell with tracing and
// metrics both off — leaves all hooks nil, preserving the uninstrumented
// fast path.
func (d *Device) Observe(c *obs.Cell, prefix string) {
	if c == nil {
		return
	}
	d.nmc.Observe(c.Track(prefix+"/nmc"), c.Metrics().Series(prefix+".nmc.readq"))
	for i, r := range d.ranks.Ranks {
		r.Observe(c.Metrics().Series(fmt.Sprintf("%s.rank%d.busyBanks", prefix, i)))
	}
}

// Size returns the local DRAM capacity in bytes.
func (d *Device) Size() int64 { return int64(d.cfg.Ranks) * addrmap.RankBytes }

// NCache exposes the SRAM buffer for inspection.
func (d *Device) NCache() *NCache { return d.ncache }

// NMC exposes the local memory controller for inspection.
func (d *Device) NMC() *memctrl.Controller { return d.nmc }

// Stats returns a copy of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// RegisterBus returns the host's register attachment: a memory-channel
// access via the asynchronous protocol.
func (d *Device) RegisterBus() nic.RegisterBus { return d.bus }

// ReceivePacket models the nNIC delivering a received frame: the
// nController depletes the nNIC RX buffer into the descriptor's DMA buffer
// in local DRAM (one write per cacheline through the nMC, which gives nNIC
// traffic priority by construction: it enqueues ahead of host reads in
// submission order) and writes the first cacheline — the packet header —
// into nCache (paper Sec. 4.1). done fires when the last write retires.
func (d *Device) ReceivePacket(bufAddr int64, size int, done func()) error {
	if size <= 0 {
		return fmt.Errorf("core: ReceivePacket size %d", size)
	}
	lines := (int64(size) + addrmap.CachelineSize - 1) / addrmap.CachelineSize
	d.ncache.invalidateRange(bufAddr, lines) // snoop: stale copies must die
	d.stats.NNICWrites += uint64(lines)
	d.nmc.SubmitLines(bufAddr, int(lines), true, done)
	// Cache the header line: "the nController writes the first cacheline
	// of each received packet to nCache".
	d.ncache.Insert(bufAddr, true, false)
	d.Registers().noteRX()
	return nil
}

// TransmitFetch models the nController reading a TX packet out of local
// DRAM into the nNIC TX buffer. done fires when the data is staged.
func (d *Device) TransmitFetch(bufAddr int64, size int, done func()) error {
	if size <= 0 {
		return fmt.Errorf("core: TransmitFetch size %d", size)
	}
	lines := (int64(size) + addrmap.CachelineSize - 1) / addrmap.CachelineSize
	d.stats.NNICReads += uint64(lines)
	d.nmc.SubmitLines(bufAddr, int(lines), false, done)
	return nil
}

// HostReadLine serves one cacheline read arriving from the global memory
// channel (the PHY path of Fig. 6a): nCache hit → data returns after the
// protocol handshake plus SRAM access; miss → the request goes to the nMC
// and returns asynchronously, after waiting for a read-queue slot if the
// nMC has none. Non-header accesses arm the nPrefetcher. done receives
// whether the read hit nCache and the total latency from this call.
func (d *Device) HostReadLine(addr int64, done func(hit bool, latency sim.Time)) {
	d.stats.HostReads++
	hit, wasHeader := d.ncache.Read(addr)
	if hit {
		if !wasHeader {
			d.prefetch(addr)
		}
		if done != nil {
			d.hits.Push(hitRead{done: done, latency: d.cfg.Protocol.ReadLatency(d.cfg.SRAMLatency)})
		}
		return
	}
	// Miss: fetch from local DRAM through the nMC, then complete over the
	// asynchronous protocol. A missing line cannot carry the header flag,
	// so the prefetcher runs (paper: the flag only inhibits prefetch for
	// header lines resident in nCache).
	d.prefetch(addr)
	d.nmc.Submit(&memctrl.Request{
		Addr:  addr,
		Bytes: addrmap.CachelineSize,
		Done: func(r memctrl.Response) {
			lat := r.Latency() + d.cfg.Protocol.ReadOverhead()
			if done != nil {
				d.eng.Schedule(d.cfg.Protocol.ReadOverhead(), func() { done(false, lat) })
			}
		},
	})
}

// prefetch arms the nPrefetcher: the next PrefetchDegree cachelines are
// read from local DRAM into nCache (skipping lines already present). It
// is best effort, the one nMC requester that does not wait: a line that
// finds the read queue full is dropped rather than queued ahead of demand
// reads.
func (d *Device) prefetch(addr int64) {
	if d.fillFn == nil {
		d.fillFn = d.fill
	}
	for i := 1; i <= d.cfg.PrefetchDegree; i++ {
		target := addr + int64(i)*addrmap.CachelineSize
		if target >= d.Size() || d.ncache.Contains(target) || d.nmc.Full(false) {
			continue
		}
		d.stats.Prefetches++
		d.nmc.Submit(&memctrl.Request{Addr: target, Bytes: addrmap.CachelineSize, Done: d.fillFn})
	}
}

// fill lands a prefetched line in nCache when its local DRAM read
// completes.
func (d *Device) fill(r memctrl.Response) {
	d.ncache.Insert(r.Addr, false, true)
	d.ncache.notePrefetchFill()
}

// Clone performs netdimmClone(dst, src, size): in-memory buffer cloning
// with automatic FPM/PSM/GCM mode selection (paper Sec. 4.1, Alg. 1 line
// 14). done receives the selected mode. The engine write-snoops nCache for
// the destination range.
func (d *Device) Clone(dst, src int64, size int, done func(dram.CloneMode)) sim.Time {
	finish, mode := d.clone(dst, src, size)
	if done != nil {
		d.eng.At(finish, func() { done(mode) })
	}
	return finish - d.eng.Now()
}

// clone starts a clone and returns the instant it finishes and the mode
// it runs in; the caller schedules its own completion.
func (d *Device) clone(dst, src int64, size int) (finish sim.Time, mode dram.CloneMode) {
	lines := (int64(size) + addrmap.CachelineSize - 1) / addrmap.CachelineSize
	d.ncache.invalidateRange(dst, lines)
	finish, mode = d.clones.Clone(d.eng.Now(), src, dst, int64(size))
	d.stats.Clones[mode]++
	return finish, mode
}

// CloneLatency predicts the cost of a clone without running it.
func (d *Device) CloneLatency(dst, src int64, size int) sim.Time {
	return d.clones.Latency(src, dst, int64(size))
}
