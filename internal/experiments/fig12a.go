package experiments

import (
	"fmt"

	"netdimm/internal/ethernet"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// Fig12aRow is one (cluster, switch latency) cell of Fig. 12(a): mean
// per-packet one-way latency per architecture and NetDIMM's normalised
// latency against both baselines.
type Fig12aRow struct {
	Cluster       workload.Cluster
	SwitchLatency sim.Time
	DNICMean      sim.Time
	INICMean      sim.Time
	NetDIMMMean   sim.Time
}

// NormVsDNIC returns NetDIMM latency normalised to the dNIC configuration
// (the Fig. 12a Y axis; lower is better).
func (r Fig12aRow) NormVsDNIC() float64 {
	if r.DNICMean == 0 {
		return 0
	}
	return float64(r.NetDIMMMean) / float64(r.DNICMean)
}

// NormVsINIC returns NetDIMM latency normalised to the iNIC configuration.
func (r Fig12aRow) NormVsINIC() float64 {
	if r.INICMean == 0 {
		return 0
	}
	return float64(r.NetDIMMMean) / float64(r.INICMean)
}

// PaperSwitchLatencies are the values swept in Fig. 12(a).
var PaperSwitchLatencies = []sim.Time{
	25 * sim.Nanosecond, 50 * sim.Nanosecond, 100 * sim.Nanosecond, 200 * sim.Nanosecond,
}

// Fig12a replays n packets of each cluster's synthetic trace through the
// clos fabric for every switch latency of PaperSwitchLatencies, measuring
// the mean one-way per-packet latency under each NIC architecture. The
// clos switches are store-and-forward, so MTU-heavy traffic (hadoop) pays
// per-hop re-serialisation, reproducing the paper's cluster ordering.
func Fig12a(sp spec.Spec, n int, seed uint64, parallelism int) ([]Fig12aRow, error) {
	clusters, switchLats := workload.Clusters, PaperSwitchLatencies
	rows := make([]Fig12aRow, len(clusters)*len(switchLats))
	for i := range rows {
		rows[i].Cluster, rows[i].SwitchLatency = clusters[i/len(switchLats)], switchLats[i%len(switchLats)]
	}
	errs := make([]error, len(clusters))
	forEachCell(len(clusters), parallelism, func(idx int) {
		gen := workload.NewGenerator(clusters[idx], 0, seed)
		errs[idx] = fig12aCell(sp.MustDerive(), gen.Next, n, 2*seed, rows[idx*len(switchLats):][:len(switchLats)], nil)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// fig12aLocalities is the number of ethernet.Locality values.
const fig12aLocalities = int(ethernet.InterDatacenter) + 1

// fig12aCell replays n packets drawn from next through the clos fabric at
// every row's switch latency and fills in the row's three means, or
// returns the first event that fails workload.Event.Validate. The NetDIMM
// endpoints are seeded ndSeed+1 (TX) and ndSeed+2 (RX).
//
// Only the two NetDIMM endpoints hold state, so only they run per packet.
// A dNIC or iNIC driver with no recorder, over a PCIe link with no
// observer, prices a packet from its size alone, and the switch model
// prices only the wire term, per-hop latency times hop count, from size
// and locality. So the cell counts each packet into a (size, locality)
// table, and afterwards adds count × cost for every non-empty entry to the
// dNIC and iNIC driver sums and to each switch latency's wire sum. The
// sums are integers, so this equals pricing every packet. Each mean is a
// driver sum plus its wire sum over the packet count.
//
// When hists is not nil it receives every packet's one-way latency at
// rows[0]'s switch latency, per architecture in Archs order: a table entry
// observes its price count times, which is the sample set pricing each
// packet gives.
func fig12aCell(d *spec.Derived, next func() workload.Event, n int, ndSeed uint64, rows []Fig12aRow, hists *[3]stats.Histogram) error {
	ndTX, err := d.NewNetDIMM(ndSeed + 1)
	if err != nil {
		return err
	}
	ndRX, err := d.NewNetDIMM(ndSeed + 2)
	if err != nil {
		return err
	}
	fabrics := make([]ethernet.Fabric, len(rows))
	for i, r := range rows {
		fabrics[i] = d.Fabric(r.SwitchLatency)
		fabrics[i].Switch.CutThrough = false
	}

	// A valid event's size lies in [1, nic.MTU]. Rows outside [lo, hi] are
	// empty.
	var counts [nic.MTU + 1][fig12aLocalities]int
	lo, hi := len(counts), 0
	var ndSum sim.Time
	for i := 0; i < n; i++ {
		e := next()
		if err := e.Validate(); err != nil {
			return fmt.Errorf("experiments: event %d: %w", i, err)
		}
		counts[e.Size][e.Locality]++
		lo, hi = min(lo, e.Size), max(hi, e.Size)
		p := e.Packet(uint64(i))
		nd := ndTX.TX(p).Plus(ndRX.RX(p)).Total()
		ndSum += nd
		if hists != nil {
			hists[2].Observe(nd + fabrics[0].WireTime(e.Size, e.Locality))
		}
	}

	dn := d.NewDNIC(false)
	in := d.NewINIC(false)
	var dnSum, inSum sim.Time
	wire := make([]sim.Time, len(rows))
	for size := lo; size <= hi; size++ {
		if counts[size] == [fig12aLocalities]int{} {
			continue
		}
		p := nic.Packet{Size: size}
		dnCost := dn.TX(p).Plus(dn.RX(p)).Total()
		inCost := in.TX(p).Plus(in.RX(p)).Total()
		for loc, c := range counts[size] {
			if c == 0 {
				continue
			}
			dnSum += sim.Time(c) * dnCost
			inSum += sim.Time(c) * inCost
			for j := range fabrics {
				wire[j] += sim.Time(c) * fabrics[j].WireTime(size, ethernet.Locality(loc))
			}
			if hists != nil {
				w := fabrics[0].WireTime(size, ethernet.Locality(loc))
				for ; c > 0; c-- {
					hists[0].Observe(dnCost + w)
					hists[1].Observe(inCost + w)
				}
			}
		}
	}
	cnt := sim.Time(n)
	for j := range rows {
		rows[j].DNICMean = (dnSum + wire[j]) / cnt
		rows[j].INICMean = (inSum + wire[j]) / cnt
		rows[j].NetDIMMMean = (ndSum + wire[j]) / cnt
	}
	return nil
}

// Fig12aAverages reduces rows to the paper's summary form: the average
// NetDIMM latency reduction vs dNIC per switch latency, across clusters
// ("40.6%, 36.0%, 33.1%, and 25.3% when switch latency is 25, 50, 100, and
// 200ns").
func Fig12aAverages(rows []Fig12aRow) map[sim.Time]float64 {
	sums := map[sim.Time]float64{}
	counts := map[sim.Time]int{}
	for _, r := range rows {
		sums[r.SwitchLatency] += 1 - r.NormVsDNIC()
		counts[r.SwitchLatency]++
	}
	out := make(map[sim.Time]float64, len(sums))
	for k, v := range sums {
		out[k] = v / float64(counts[k])
	}
	return out
}
