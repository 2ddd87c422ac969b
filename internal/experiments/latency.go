// Package experiments assembles full systems from the substrate packages
// and regenerates every table and figure of the paper's evaluation:
//
//	Fig. 4   — one-way latency of dNIC / dNIC.zcpy / iNIC / iNIC.zcpy with
//	           the PCIe overhead share (motivation, Sec. 3)
//	Fig. 5   — iperf bandwidth under memory pressure (motivation, Sec. 3)
//	Fig. 7   — spatial/temporal locality of NIC DMA accesses (Sec. 4.1)
//	Fig. 11  — one-way latency breakdown for dNIC / iNIC / NetDIMM (Sec. 5.2)
//	Fig. 12a — per-packet latency on Facebook-like cluster traces across
//	           switch latencies (Sec. 5.3)
//	Fig. 12b — co-running application memory latency under DPI and L3F
//	           (Sec. 5.3)
//
// plus the headline numbers quoted in the abstract.
package experiments

import (
	"fmt"

	"netdimm/internal/driver"
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
)

// PaperSizes are the packet sizes on the X axis of Fig. 4 and Fig. 11.
var PaperSizes = []int{10, 60, 200, 500, 1000, 2000, 4000, 8000}

// Fig11Sizes are the sizes the paper quotes explicit NetDIMM reductions
// for (Sec. 5.2: 64B, 256B, 1024B).
var Fig11Sizes = []int{64, 256, 1024, 1514, 4000, 8000}

// Fig4Row is one packet size's comparison of the four baseline NIC
// configurations (Fig. 4), with the PCIe share of the two dNIC configs.
type Fig4Row struct {
	Size          int
	DNIC          sim.Time
	DNICZcpy      sim.Time
	INIC          sim.Time
	INICZcpy      sim.Time
	PCIeShare     float64 // pcie.overh for dNIC
	PCIeShareZcpy float64 // pcie.overh for dNIC.zcpy
}

// Fig4 reproduces the motivation experiment: one-way latency between two
// directly connected nodes for the four baseline configurations, on the
// system described by sp. Each size is an independent cell (fresh machines
// and derived parameters per cell), fanned out over `parallelism` workers.
func Fig4(sp spec.Spec, sizes []int, parallelism int) []Fig4Row {
	rows := make([]Fig4Row, len(sizes))
	forEachCell(len(sizes), parallelism, func(i int) {
		d := sp.MustDerive()
		fabric := d.Fabric(d.SwitchLatency)
		size := sizes[i]
		p := nic.Packet{Size: size}
		dn := d.NewDNIC(false)
		dz := d.NewDNIC(true)
		in := d.NewINIC(false)
		iz := d.NewINIC(true)

		dnB := driver.OneWay(dn, d.NewDNIC(false), p, fabric, nil)
		dzB := driver.OneWay(dz, d.NewDNIC(true), p, fabric, nil)
		inB := driver.OneWay(in, d.NewINIC(false), p, fabric, nil)
		izB := driver.OneWay(iz, d.NewINIC(true), p, fabric, nil)

		rows[i] = Fig4Row{
			Size:          size,
			DNIC:          dnB.Total(),
			DNICZcpy:      dzB.Total(),
			INIC:          inB.Total(),
			INICZcpy:      izB.Total(),
			PCIeShare:     dn.PCIeShare(p, dnB.Total()),
			PCIeShareZcpy: dz.PCIeShare(p, dzB.Total()),
		}
	})
	return rows
}

// Fig11Row is one packet size's latency breakdown for the three
// architectures (the three panels of Fig. 11).
type Fig11Row struct {
	Size    int
	DNIC    stats.Breakdown
	INIC    stats.Breakdown
	NetDIMM stats.Breakdown
}

// ReductionVsDNIC returns NetDIMM's relative latency reduction.
func (r Fig11Row) ReductionVsDNIC() float64 {
	return stats.Reduction(r.DNIC.Total(), r.NetDIMM.Total())
}

// ReductionVsINIC returns NetDIMM's relative latency reduction over iNIC.
func (r Fig11Row) ReductionVsINIC() float64 {
	return stats.Reduction(r.INIC.Total(), r.NetDIMM.Total())
}

// Fig11Observed reproduces the central latency experiment: per-component
// one-way latency for dNIC, iNIC and NetDIMM across packet sizes, on the
// system described by sp. Each size uses fresh machines so bank and cache
// state do not leak across rows; seeds vary per side so TX and RX devices
// differ. When ospec enables tracing or metrics, every size gets its own
// cell (labelled "fig11/size=<n>") holding per-architecture lifecycle
// spans whose per-component track sums equal the reported breakdowns,
// plus substrate metrics. With a zero ospec the returned observer is nil;
// the cells, their event order and the rows are the same either way.
func Fig11Observed(sp spec.Spec, sizes []int, parallelism int, ospec obs.Spec) ([]Fig11Row, *obs.Observer, error) {
	return runCells(len(sizes), parallelism, ospec, func(i int) string {
		return fmt.Sprintf("fig11/size=%d", sizes[i])
	}, func(i int, cell *obs.Cell) (Fig11Row, error) {
		d := sp.MustDerive()
		fabric := d.Fabric(d.SwitchLatency)
		size := sizes[i]
		p := nic.Packet{Size: size}
		ndTX, err := d.NewNetDIMM(uint64(2*i + 1))
		if err != nil {
			return Fig11Row{}, err
		}
		ndRX, err := d.NewNetDIMM(uint64(2*i + 2))
		if err != nil {
			return Fig11Row{}, err
		}
		return Fig11Row{
			Size:    size,
			DNIC:    driver.OneWay(d.NewDNIC(false), d.NewDNIC(false), p, fabric, cell),
			INIC:    driver.OneWay(d.NewINIC(false), d.NewINIC(false), p, fabric, cell),
			NetDIMM: driver.OneWay(ndTX, ndRX, p, fabric, cell),
		}, nil
	})
}

// AverageReduction computes the mean relative reduction of NetDIMM vs the
// selected baseline over the rows (the paper's "on average 49.9% vs PCIe
// NIC, 25.9% vs integrated NIC").
func AverageReduction(rows []Fig11Row, vsINIC bool) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		if vsINIC {
			sum += r.ReductionVsINIC()
		} else {
			sum += r.ReductionVsDNIC()
		}
	}
	return sum / float64(len(rows))
}
