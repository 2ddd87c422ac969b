package experiments

import (
	"netdimm/internal/core"
	"netdimm/internal/memctrl"
	"netdimm/internal/nvdimmp"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
)

// MixedChannelResult reports the DDR5 mixed-channel experiment: a
// conventional DIMM and a NetDIMM share one channel; the asynchronous
// protocol lets deterministic DDR reads complete past in-flight
// non-deterministic NetDIMM reads (paper Sec. 2.2 and 4.1: "The DDR5
// support of asynchronous memory request completion allows mixing DRAM
// and NetDIMM on a same memory channel").
type MixedChannelResult struct {
	DDRReads          int
	NetDIMMReads      int
	DDRMeanLatency    sim.Time
	NetDIMMMean       sim.Time
	OutOfOrder        uint64 // completions that overtook an older transaction
	MaxOutstandingIDs int
}

// MixedChannelObserved interleaves DDR reads (served by a plain DDR4 rank)
// with NetDIMM reads (served by the buffer device through nCache misses
// into busy local DRAM) over one channel, tracking every transaction with
// the NVDIMM-P request-ID machinery. When ospec enables collection, one
// cell ("mixed") collects DDR controller transaction spans and queue
// depth, NetDIMM device metrics, an NVDIMM-P outstanding-transaction
// series, and an engine probe; a zero ospec yields a nil observer and no
// instrumentation.
func MixedChannelObserved(sp spec.Spec, n int, seed uint64, ospec obs.Spec) (MixedChannelResult, *obs.Observer, error) {
	if n <= 0 {
		n = 200
	}
	var o *obs.Observer
	if ospec.Enabled() {
		o = obs.New(ospec, "mixed")
	}
	cell := o.Cell(0)
	d := sp.MustDerive()
	eng := sim.NewEngine()
	ddr := memctrl.New(eng, d.MC, memctrl.NewRankSet(d.HostTiming, 1))
	ddr.Observe(cell.Track("ddr/mc"), cell.Metrics().Series("ddr.readq"))
	obs.NewEngineProbe(cell.Metrics(), "engine").Attach(eng)

	cfg := d.Core
	cfg.Seed = seed
	dev := core.NewDevice(eng, cfg)
	dev.Observe(cell, "netdimm")
	// Keep the NetDIMM's local DRAM busy with nNIC traffic, so host reads
	// see non-deterministic latency (the arbitration of Sec. 4.1).
	for p := 0; p < 32; p++ {
		dev.ReceivePacket(int64(p)*2048, 1514, nil)
	}

	tracker := nvdimmp.NewTracker(cfg.Protocol, 64)
	if s := cell.Metrics().Series("nvdimmp.outstanding"); s != nil {
		tracker.SetProbe(func(now sim.Time, outstanding int) { s.Sample(now, int64(outstanding)) })
	}
	rng := sim.NewRand(seed)

	var res MixedChannelResult
	var ddrHist, ndHist stats.Histogram
	maxOut := 0

	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			// DDR read: deterministic timing, no request ID needed.
			start := eng.Now()
			ddr.Submit(&memctrl.Request{
				Addr: rng.Int63n(1<<20) * 64,
				Done: func(r memctrl.Response) { ddrHist.Observe(r.Completed - start) },
			})
			res.DDRReads++
		} else {
			// NetDIMM read: issue an XRD with a request ID; RDY fires when
			// the device stages the data; SEND completes it. A third of the
			// reads target freshly received packet headers, which hit
			// nCache and complete fast — overtaking older in-flight misses
			// (the out-of-order completions the protocol exists for).
			addr := rng.Int63n(1<<20) * 64
			if rng.Float64() < 0.33 {
				slot := int64(rng.Intn(32))
				dev.ReceivePacket(slot*2048, 128, nil) // refresh the header line
				addr = slot * 2048
			}
			tx, err := tracker.Issue(eng.Now(), addr)
			if err != nil {
				// ID space exhausted: stall this iteration (the MC would).
				eng.Schedule(20*sim.Nanosecond, func() {})
				eng.Run()
				i--
				continue
			}
			start := eng.Now()
			id := tx.ID
			dev.HostReadLine(addr, func(hit bool, lat sim.Time) {
				tracker.Ready(id, eng.Now())
				if _, err := tracker.Complete(id); err == nil {
					ndHist.Observe(eng.Now() - start)
				}
			})
			res.NetDIMMReads++
		}
		if o := tracker.Outstanding(); o > maxOut {
			maxOut = o
		}
		// Interleave issue with a short think time so transactions overlap.
		eng.Schedule(sim.Time(rng.Range(5, 40))*sim.Nanosecond, func() {})
		eng.RunUntil(eng.Now() + sim.Time(rng.Range(5, 40))*sim.Nanosecond)
	}
	eng.Run()

	_, _, ooo := tracker.Stats()
	res.DDRMeanLatency = ddrHist.Mean()
	res.NetDIMMMean = ndHist.Mean()
	res.OutOfOrder = ooo
	res.MaxOutstandingIDs = maxOut
	return res, o, nil
}
