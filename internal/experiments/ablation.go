package experiments

import (
	"netdimm/internal/addrmap"
	"netdimm/internal/core"
	"netdimm/internal/dram"
	"netdimm/internal/kalloc"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// Ablations quantify the contribution of each NetDIMM design choice the
// paper argues for (Sec. 4): the nPrefetcher, the nCache header caching,
// sub-array-affine allocation (FPM cloning), and the allocCache fast path.

// PrefetchAblationRow reports payload-read behaviour for one prefetch
// degree.
type PrefetchAblationRow struct {
	Degree      int
	HitRate     float64  // nCache hit rate over payload reads
	MeanReadLat sim.Time // mean host payload-read latency
}

// Each ablation's packet count.
const (
	prefetchAblationPackets    = 50
	allocAblationPackets       = 300
	headerCacheAblationPackets = 200
)

// PrefetchAblation receives MTU packets and reads their full payload
// through the memory channel for nPrefetcher degrees 0, 1, 2, 4 and 8. The
// paper's claim: with the next-line prefetcher, "reading an entire RX
// packet may only experience one nCache miss" (Sec. 4.1).
func PrefetchAblation(sp spec.Spec, parallelism int) []PrefetchAblationRow {
	degrees := []int{0, 1, 2, 4, 8}
	rows := make([]PrefetchAblationRow, len(degrees))
	forEachCell(len(degrees), parallelism, func(cell int) {
		deg := degrees[cell]
		eng := sim.NewEngine()
		cfg := sp.MustDerive().Core
		cfg.PrefetchDegree = deg
		dev := core.NewDevice(eng, cfg)

		var hits, total int
		var latSum sim.Time
		for p := 0; p < prefetchAblationPackets; p++ {
			buf := int64(p%256) * 2048
			dev.ReceivePacket(buf, nic.MTU, nil)
			eng.Run()
			lines := (nic.MTU + 63) / 64
			for i := 1; i < lines; i++ { // payload lines only
				addr := buf + int64(i)*64
				dev.HostReadLine(addr, func(hit bool, lat sim.Time) {
					total++
					if hit {
						hits++
					}
					latSum += lat
				})
				eng.Run()
			}
		}
		row := PrefetchAblationRow{Degree: deg}
		if total > 0 {
			row.HitRate = float64(hits) / float64(total)
			row.MeanReadLat = latSum / sim.Time(total)
		}
		rows[cell] = row
	})
	return rows
}

// CloneAblationRow compares the in-memory clone modes for the RX buffer
// copy, and the CPU-copy alternative.
type CloneAblationRow struct {
	Strategy string
	PerClone sim.Time
}

// CloneAblation quantifies why sub-array-affine allocation matters (paper
// Sec. 4.1/4.2.1): an FPM clone vs PSM vs GCM vs a conventional CPU copy
// of one MTU packet.
func CloneAblation(sp spec.Spec) []CloneAblationRow {
	d := sp.MustDerive()
	eng := sim.NewEngine()
	dev := core.NewDevice(eng, d.Core)
	costs := d.Costs

	src := int64(0)
	fpmDst := src + addrmap.SameSubarrayPageStride
	psmDst := src + 2*addrmap.PageSize // same rank, different bank
	gcmDst := src + addrmap.RankBytes  // other rank

	return []CloneAblationRow{
		{Strategy: "FPM (same sub-array, hinted alloc)", PerClone: dev.CloneLatency(fpmDst, src, nic.MTU)},
		{Strategy: "PSM (same rank, unhinted)", PerClone: dev.CloneLatency(psmDst, src, nic.MTU)},
		{Strategy: "GCM (cross-rank)", PerClone: dev.CloneLatency(gcmDst, src, nic.MTU)},
		{Strategy: "CPU memcpy (no in-memory cloning)", PerClone: costs.CopyTime(nic.MTU)},
	}
}

// AllocAblationRow compares DMA-buffer allocation strategies.
type AllocAblationRow struct {
	Strategy string
	PerAlloc sim.Time
	// FPMRate is the fraction of RX clones that ran in FPM mode under the
	// strategy.
	FPMRate float64
}

// AllocAblation measures the allocCache contribution: pre-allocated
// sub-array-affine pages vs calling __alloc_netdimm_pages per packet vs
// hint-less allocation (which degrades clones to PSM/GCM).
//
// AllocAblation stays sequential: strategy 2 reuses the FPM rate measured
// by strategy 1, so the strategies are not independent cells.
func AllocAblation(sp spec.Spec) ([]AllocAblationRow, error) {
	d := sp.MustDerive()
	costs := d.Costs

	// Strategy 1: allocCache (the paper's design) — measured on the real
	// driver.
	nd, err := d.NewNetDIMM(21)
	if err != nil {
		return nil, err
	}
	for i := 0; i < allocAblationPackets; i++ {
		nd.RX(nic.Packet{Size: nic.MTU})
	}
	s := nd.Stats()
	fpm := float64(s.ClonesFPM) / float64(s.ClonesFPM+s.ClonesOther)
	rows := []AllocAblationRow{{
		Strategy: "allocCache (pre-allocated, affine)",
		PerAlloc: costs.AllocCacheLookup,
		FPMRate:  fpm,
	}}

	// Strategy 2: direct __alloc_netdimm_pages with hint per packet: same
	// affinity, but the slow allocator runs on the critical path.
	rows = append(rows, AllocAblationRow{
		Strategy: "__alloc_netdimm_pages(hint) per packet",
		PerAlloc: costs.AllocCacheLookup + costs.SlowAllocPages,
		FPMRate:  fpm,
	})

	// Strategy 3: hint-less allocation — a conventional buddy allocator
	// hands back physically sequential pages, which land in different
	// banks/sub-arrays (Fig. 9c), so the clone degrades to PSM/GCM.
	zone := kalloc.NewNetDIMMZone("NET_x", d.ZoneBase(0), int64(d.Spec.NetDIMMSizeGB)<<30)
	var fpmCount, total int
	rxBuf, _ := zone.AllocPage()
	for i := 0; i < allocAblationPackets; i++ {
		skb := zone.Base + int64(i+2)*addrmap.PageSize // sequential pages
		if dram.CloneModeFor(rxBuf-zone.Base, skb-zone.Base) == dram.FPM {
			fpmCount++
		}
		total++
	}
	rows = append(rows, AllocAblationRow{
		Strategy: "no hint (sequential pages)",
		PerAlloc: costs.SlowAllocPages,
		FPMRate:  float64(fpmCount) / float64(total),
	})
	return rows, nil
}

// HeaderCacheAblationRow compares header-read latency with and without
// nCache.
type HeaderCacheAblationRow struct {
	Strategy   string
	HeaderRead sim.Time
	HitRate    float64
}

// HeaderCacheAblation measures the nCache contribution to header
// processing (the L3F-style access pattern): header reads with the nCache
// enabled vs a device with a zero-line cache.
func HeaderCacheAblation(sp spec.Spec, parallelism int) []HeaderCacheAblationRow {
	run := func(lines int) HeaderCacheAblationRow {
		eng := sim.NewEngine()
		cfg := sp.MustDerive().Core
		name := "nCache enabled (512 lines)"
		if lines > 0 {
			cfg.NCacheLines = lines
		} else {
			// A 1-line direct cache that every later insert evicts models
			// "no nCache" while keeping the structure valid.
			cfg.NCacheLines = 1
			cfg.NCacheWays = 1
			cfg.PrefetchDegree = 0
			name = "nCache disabled"
		}
		dev := core.NewDevice(eng, cfg)
		var latSum sim.Time
		var hits, total int
		for p := 0; p < headerCacheAblationPackets; p++ {
			buf := int64(p%256) * 2048
			dev.ReceivePacket(buf, nic.MTU, nil)
			// A second packet arrives before the header read (burstiness),
			// stressing nCache capacity.
			dev.ReceivePacket(buf+512*1024, 128, nil)
			eng.Run()
			dev.HostReadLine(buf, func(hit bool, lat sim.Time) {
				total++
				if hit {
					hits++
				}
				latSum += lat
			})
			eng.Run()
		}
		return HeaderCacheAblationRow{
			Strategy:   name,
			HeaderRead: latSum / sim.Time(total),
			HitRate:    float64(hits) / float64(total),
		}
	}
	lines := []int{512, 0}
	rows := make([]HeaderCacheAblationRow, len(lines))
	forEachCell(len(lines), parallelism, func(i int) {
		rows[i] = run(lines[i])
	})
	return rows
}
