package experiments

import (
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// Fig7Point is one DMA memory request as plotted in the paper's Fig. 7:
// relative cacheline address vs relative arrival time at the memory
// controller.
type Fig7Point struct {
	RelLine int // cacheline offset from the first request
	RelTime sim.Time
	Burst   int // which packet's burst this request belongs to
}

// Fig7 reproduces the NIC DMA access-pattern study: the memory requests
// generated while receiving six back-to-back 1514B packets on the system's
// NIC. Each arrival produces a burst of 24 cacheline writes paced at the
// PCIe DMA rate — the spatial/temporal locality that motivates nCache and
// nPrefetcher (Sec. 4.1).
func Fig7(sp spec.Spec) []Fig7Point {
	const packets = 6
	d := sp.MustDerive()
	link := d.Link
	dmaBW := d.PCIe.EffectiveBandwidth(256)

	var out []Fig7Point
	var t0 sim.Time
	var base int64
	for pktIdx := 0; pktIdx < packets; pktIdx++ {
		arrive := sim.Time(pktIdx) * link.SerializeTime(nic.MTU)
		// RX buffers are consecutive 2KB ring slots.
		buf := int64(pktIdx) * 2048
		trace := nic.TraceTransfer(arrive, buf, nic.MTU, true, dmaBW)
		for _, e := range trace {
			if len(out) == 0 {
				t0 = e.At
				base = e.Addr
			}
			out = append(out, Fig7Point{
				RelLine: int((e.Addr - base) / 64),
				RelTime: e.At - t0,
				Burst:   pktIdx,
			})
		}
	}
	return out
}
