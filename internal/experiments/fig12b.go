package experiments

import (
	"netdimm/internal/addrmap"
	"netdimm/internal/cache"
	"netdimm/internal/memctrl"
	"netdimm/internal/netfunc"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// Fig12bRow is one (cluster, network function) cell of Fig. 12(b): the
// memory access latency a co-running application observes on a server
// running the function over the cluster's traffic, for iNIC and NetDIMM.
type Fig12bRow struct {
	Cluster   workload.Cluster
	Kind      netfunc.Kind
	INICAppNs float64
	NetDIMMNs float64
}

// Norm returns NetDIMM's app latency normalised to iNIC (Fig. 12b Y axis;
// below 1.0 means NetDIMM interferes less).
func (r Fig12bRow) Norm() float64 {
	if r.INICAppNs == 0 {
		return 0
	}
	return r.NetDIMMNs / r.INICAppNs
}

// The Fig. 12(b) interference rig (Sec. 5.3's co-run).
const (
	fig12bDuration = 400 * sim.Microsecond
	// fig12bAppGap is the co-running application's mean time between
	// memory accesses.
	fig12bAppGap = 60 * sim.Nanosecond
	// fig12bAppWorkingSet sizes the application's footprint; around the
	// LLC size, so losing the DDIO ways to iNIC traffic is visible.
	fig12bAppWorkingSet int64 = 2 << 20
	// fig12bPacketGap is the mean inter-arrival of the replayed traffic:
	// near line rate for the clusters' mean packet size (~5GB/s of 40GbE
	// traffic).
	fig12bPacketGap = 160 * sim.Nanosecond
	fig12bSeed      = 1
)

// Fig12b measures co-running application memory latency under each
// (cluster, function, architecture) combination: every cluster of
// workload.Clusters under DPI and L3F.
//
// The mechanism being compared (Sec. 5.3): an iNIC injects every received
// packet into the LLC via DDIO — no memory-channel traffic while the
// function keeps up, but the DDIO ways are lost to the application. A
// NetDIMM keeps packets in its local DRAM — the LLC stays clean, but every
// cacheline the function actually reads crosses the host memory channel
// the NetDIMM shares with the application's DIMMs: one line per packet for
// L3F (served by nCache but still occupying the channel), the whole packet
// for DPI.
// Each (cluster, function, architecture) run is its own cell — the finest
// grain available, 2 cells per output row — fanned out over `parallelism`
// workers and reassembled in grid order.
func Fig12b(sp spec.Spec, parallelism int) []Fig12bRow {
	clusters, kinds := workload.Clusters, []netfunc.Kind{netfunc.DPI, netfunc.L3F}
	nRows := len(clusters) * len(kinds)
	vals := make([]float64, 2*nRows) // [2*row] = iNIC, [2*row+1] = NetDIMM
	forEachCell(2*nRows, parallelism, func(idx int) {
		row := idx / 2
		cl := clusters[row/len(kinds)]
		k := kinds[row%len(kinds)]
		vals[idx] = runInterference(sp.MustDerive(), cl, k, idx%2 == 1)
	})
	rows := make([]Fig12bRow, nRows)
	for row := range rows {
		rows[row] = Fig12bRow{
			Cluster:   clusters[row/len(kinds)],
			Kind:      kinds[row%len(kinds)],
			INICAppNs: vals[2*row],
			NetDIMMNs: vals[2*row+1],
		}
	}
	return rows
}

// runInterference returns the app's mean memory access latency in ns.
func runInterference(d *spec.Derived, cl workload.Cluster, kind netfunc.Kind, netdimm bool) float64 {
	eng := sim.NewEngine()
	rs := memctrl.NewRankSet(d.HostTiming, 2)
	mc := memctrl.New(eng, d.MC, rs)
	llc := cache.New(cache.LLC2MB())
	llc.WritebackFn = func(addr int64) {
		mc.Submit(&memctrl.Request{Addr: addr, Write: true, Bytes: addrmap.CachelineSize})
	}

	var appLat stats.Histogram
	rng := sim.NewRand(fig12bSeed)

	// The co-running application: a pointer-chasing workload over its
	// working set in rank 0, measured through the LLC.
	var appTick func()
	appTick = func() {
		lines := fig12bAppWorkingSet / addrmap.CachelineSize
		addr := rng.Int63n(lines) * addrmap.CachelineSize
		write := rng.Float64() < 0.3
		hitLat := llc.Config().HitLatency
		if llc.Access(addr, write) {
			appLat.Observe(hitLat)
		} else if !write {
			mc.Submit(&memctrl.Request{
				Addr: addr, Bytes: addrmap.CachelineSize,
				Done: func(r memctrl.Response) { appLat.Observe(hitLat + r.Latency()) },
			})
		}
		eng.Schedule(rng.Exp(fig12bAppGap), appTick)
	}
	appTick()

	// The network function's traffic.
	gen := workload.NewGenerator(cl, fig12bPacketGap, fig12bSeed+7)
	// NetDIMM-region reads target rank 1: a different DIMM on the same
	// channel, sharing the data bus with the application's rank-0 DIMM.
	netdimmBase := addrmap.RankBytes
	// The RX ring footprint (512KB) deliberately exceeds the 256KB DDIO
	// share: on an iNIC, untouched payload lines leak out of the LLC as
	// dirty writebacks — the on-chip pollution the paper's L3F case
	// penalises (Sec. 3, limitation L3).
	ringSlots := int64(256)
	var slot int64
	var pktTick func()
	pktTick = func() {
		e := gen.Next()
		p := e.Packet(0)
		lines := int64(p.Cachelines())
		touched := int64(kind.LinesTouched(p))
		buf := (slot % ringSlots) * 2048
		slot++
		if netdimm {
			// Host fetches only the lines the function needs, over the
			// shared channel, from the NetDIMM's address space. The driver
			// invalidates the stale buffer lines first (Alg. 1), and the
			// fetched lines allocate into the LLC as ordinary demand
			// fills — so a DPI workload pollutes the whole cache, not just
			// a DDIO share (the paper's DPI-on-NetDIMM downside).
			llc.InvalidateRange(netdimmBase+buf, touched*addrmap.CachelineSize)
			for i := int64(0); i < touched; i++ {
				addr := netdimmBase + buf + i*addrmap.CachelineSize
				if !llc.Access(addr, false) {
					mc.Submit(&memctrl.Request{Addr: addr, Bytes: addrmap.CachelineSize})
				}
			}
		} else {
			// iNIC: DDIO the whole packet into the LLC, then the function
			// reads its lines from the cache.
			for i := int64(0); i < lines; i++ {
				llc.DDIOAllocate(buf + i*addrmap.CachelineSize)
			}
			for i := int64(0); i < touched; i++ {
				if !llc.Access(buf+i*addrmap.CachelineSize, false) {
					// Leaked before use: fetch from memory.
					mc.Submit(&memctrl.Request{Addr: buf + i*addrmap.CachelineSize, Bytes: addrmap.CachelineSize})
				}
			}
			// Forwarding: the NIC TX engine reads the whole frame back out
			// of the LLC. Lines that already leaked to DRAM (the untouched
			// payload of an L3F packet) must be fetched over the channel —
			// the DDIO-pollution penalty of Sec. 3 (L3). DPI-touched lines
			// are still resident, so DPI forwarding stays on-chip.
			for i := int64(0); i < lines; i++ {
				if !llc.Lookup(buf + i*addrmap.CachelineSize) {
					mc.Submit(&memctrl.Request{Addr: buf + i*addrmap.CachelineSize, Bytes: addrmap.CachelineSize})
				}
			}
		}
		eng.Schedule(rng.Exp(fig12bPacketGap), pktTick)
	}
	pktTick()

	eng.RunUntil(fig12bDuration)
	return appLat.Mean().Nanoseconds()
}
