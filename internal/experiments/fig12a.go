package experiments

import (
	"netdimm/internal/ethernet"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
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
// clos fabric for every switch latency, measuring the mean one-way
// per-packet latency under each NIC architecture. The clos switches are
// store-and-forward, so MTU-heavy traffic (hadoop) pays per-hop
// re-serialisation, reproducing the paper's cluster ordering.
func Fig12a(sp spec.Spec, clusters []workload.Cluster, switchLats []sim.Time, n int, seed uint64, parallelism int) ([]Fig12aRow, error) {
	rows := make([]Fig12aRow, len(clusters)*len(switchLats))
	errs := make([]error, len(clusters))
	forEachCell(len(clusters), parallelism, func(idx int) {
		errs[idx] = fig12aCell(sp.MustDerive(), clusters[idx], switchLats, n, seed, rows[idx*len(switchLats):][:len(switchLats)])
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// fig12aLocalities is the number of ethernet.Locality values.
const fig12aLocalities = int(ethernet.InterDatacenter) + 1

// fig12aCell measures one cluster at every switch latency into rows. Only
// the two NetDIMM endpoints hold state, so only they run per packet. A
// dNIC or iNIC driver with no recorder, over a PCIe link with no observer,
// prices a packet from its size alone, and the switch model prices only
// the wire term, per-hop latency times hop count, from size and locality.
// So the cell streams the cluster's trace, counts each packet into a
// (size, locality) table, and afterwards adds count × cost for every
// non-empty entry to the dNIC and iNIC driver sums and to each switch
// latency's wire sum. The sums are integers, so this equals pricing every
// packet. Each row is a driver sum plus its wire sum over the packet
// count. Every cell regenerates its trace and machines from the same seed,
// so cells are fully independent of each other.
func fig12aCell(d *spec.Derived, cl workload.Cluster, switchLats []sim.Time, n int, seed uint64, rows []Fig12aRow) error {
	ndTX, err := d.NewNetDIMM(seed*2 + 1)
	if err != nil {
		return err
	}
	ndRX, err := d.NewNetDIMM(seed*2 + 2)
	if err != nil {
		return err
	}

	// Every cluster draws sizes up to the MTU (workload.Cluster.SampleSize).
	// Rows outside [lo, hi] are empty.
	var counts [nic.MTU + 1][fig12aLocalities]int
	lo, hi := len(counts), 0
	gen := workload.NewGenerator(cl, 0, seed)
	var ndSum sim.Time
	for i := 0; i < n; i++ {
		e := gen.Next()
		counts[e.Size][e.Locality]++
		lo, hi = min(lo, e.Size), max(hi, e.Size)
		p := e.Packet(uint64(i))
		ndSum += ndTX.TX(p).Plus(ndRX.RX(p)).Total()
	}

	fabrics := make([]ethernet.Fabric, len(switchLats))
	for i, sl := range switchLats {
		fabrics[i] = d.Fabric(sl)
		fabrics[i].Switch.CutThrough = false
	}
	dn := d.NewDNIC(false)
	in := d.NewINIC(false)
	var dnSum, inSum sim.Time
	wire := make([]sim.Time, len(switchLats))
	for size := lo; size <= hi; size++ {
		var all int
		for loc, c := range counts[size] {
			if c == 0 {
				continue
			}
			all += c
			for j := range fabrics {
				wire[j] += sim.Time(c) * fabrics[j].WireTime(size, ethernet.Locality(loc))
			}
		}
		if all == 0 {
			continue
		}
		p := nic.Packet{Size: size}
		dnSum += sim.Time(all) * dn.TX(p).Plus(dn.RX(p)).Total()
		inSum += sim.Time(all) * in.TX(p).Plus(in.RX(p)).Total()
	}
	cnt := sim.Time(n)
	for j, sl := range switchLats {
		rows[j] = Fig12aRow{
			Cluster:       cl,
			SwitchLatency: sl,
			DNICMean:      (dnSum + wire[j]) / cnt,
			INICMean:      (inSum + wire[j]) / cnt,
			NetDIMMMean:   (ndSum + wire[j]) / cnt,
		}
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
