package experiments

import (
	"testing"

	"netdimm/internal/driver"
	"netdimm/internal/netfunc"
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// ---- Fig. 4 ----

func TestFig4Shapes(t *testing.T) {
	rows := Fig4(spec.TableOne(), []int{10, 60, 200, 500, 1000, 2000}, 1)
	for i, r := range rows {
		// iNIC beats dNIC; zero copy beats copying on each architecture.
		if !(r.INIC < r.DNIC) {
			t.Errorf("size %d: iNIC %v !< dNIC %v", r.Size, r.INIC, r.DNIC)
		}
		if !(r.DNICZcpy < r.DNIC) || !(r.INICZcpy < r.INIC) {
			t.Errorf("size %d: zero copy did not help", r.Size)
		}
		// PCIe is a dominant dNIC overhead (paper quotes 40.9%/34.3% for
		// dNIC.zcpy at 10B/2000B).
		if r.PCIeShare < 0.25 || r.PCIeShare > 0.95 {
			t.Errorf("size %d: PCIe share %.2f out of plausible band", r.Size, r.PCIeShare)
		}
		// Latency grows with size within each configuration.
		if i > 0 && r.DNIC < rows[i-1].DNIC {
			t.Errorf("size %d: dNIC latency shrank with size", r.Size)
		}
	}
	// Zero copy helps large packets more than small ones (Sec. 3).
	first, last := rows[0], rows[len(rows)-1]
	gainSmall := stats.Reduction(first.INIC, first.INICZcpy)
	gainLarge := stats.Reduction(last.INIC, last.INICZcpy)
	if gainLarge <= gainSmall {
		t.Errorf("zcpy gain should grow with size: %.2f (10B) vs %.2f (2000B)", gainSmall, gainLarge)
	}
	// PCIe share declines with packet size for dNIC.zcpy (40.9% -> 34.3%).
	if last.PCIeShareZcpy >= first.PCIeShareZcpy {
		t.Errorf("dNIC.zcpy PCIe share should shrink with size: %.2f -> %.2f",
			first.PCIeShareZcpy, last.PCIeShareZcpy)
	}
}

// ---- Fig. 11 / headline latency ----

func TestFig11PaperShape(t *testing.T) {
	rows, _, err := Fig11Observed(spec.TableOne(), Fig11Sizes, 1, obs.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Ordering at every size.
		if !(r.NetDIMM.Total() < r.INIC.Total() && r.INIC.Total() < r.DNIC.Total()) {
			t.Errorf("size %d: ordering violated: ND %v iNIC %v dNIC %v",
				r.Size, r.NetDIMM.Total(), r.INIC.Total(), r.DNIC.Total())
		}
		// Paper Sec. 5.2: 46.1-52.3%% reductions for 64-1024B; allow a
		// band of 40-60%%. 8000 B, a size with no paper figure, is a
		// recorded deviation (EXPERIMENTS.md, Fig. 11): its 125 lines
		// overflow the 64-entry nMC queues, the rest wait, and txDMA and
		// rxDMA grow to 858 ns each, so the reduction is 37.4%%.
		if r.Size == 8000 {
			nd := r.NetDIMM
			if nd.Total() != 4953095 || nd[stats.TxDMA] != 858072 || nd[stats.RxDMA] != 858072 {
				t.Errorf("size 8000: NetDIMM total %v, txDMA %v, rxDMA %v; the recorded deviation is 4.953095µs, 858.072ns and 858.072ns",
					nd.Total(), nd[stats.TxDMA], nd[stats.RxDMA])
			}
		} else if red := r.ReductionVsDNIC(); red < 0.40 || red > 0.60 {
			t.Errorf("size %d: reduction vs dNIC = %.1f%%, want 40-60%%", r.Size, red*100)
		}
		// NetDIMM's flush+invalidate overhead is present but bounded
		// (paper: 9.7-15.8%% combined).
		nd := r.NetDIMM
		share := float64(nd[stats.TxFlush]+nd[stats.RxInvalidate]) / float64(nd.Total())
		if share <= 0.01 || share > 0.25 {
			t.Errorf("size %d: flush+invalidate share %.1f%%", r.Size, share*100)
		}
		// iNIC and NetDIMM have tiny I/O register cost next to dNIC.
		if r.NetDIMM[stats.IOReg] >= r.DNIC[stats.IOReg]/2 {
			t.Errorf("size %d: NetDIMM ioreg %v not well below dNIC %v",
				r.Size, r.NetDIMM[stats.IOReg], r.DNIC[stats.IOReg])
		}
	}
	// Paper averages: 49.9%% vs dNIC, 25.9%% vs iNIC.
	avgD := AverageReduction(rows, false)
	avgI := AverageReduction(rows, true)
	if avgD < 0.40 || avgD > 0.58 {
		t.Errorf("avg reduction vs dNIC = %.1f%%, want ~50%%", avgD*100)
	}
	if avgI < 0.15 || avgI > 0.35 {
		t.Errorf("avg reduction vs iNIC = %.1f%%, want ~26%%", avgI*100)
	}
}

// ---- Fig. 5 ----

func TestFig5BandwidthCollapse(t *testing.T) {
	rows := Fig5(spec.TableOne(), []sim.Time{sim.Second, 500 * sim.Nanosecond, 20 * sim.Nanosecond, 5 * sim.Nanosecond}, 0)
	base := rows[0].BandwidthGbps
	if base < 35 || base > 41 {
		t.Fatalf("uncontended bandwidth = %.1f Gbps, want ~40", base)
	}
	if rows[1].BandwidthGbps < 0.9*base {
		t.Errorf("light pressure should not collapse bandwidth: %.1f", rows[1].BandwidthGbps)
	}
	// Paper: at maximum pressure iperf delivers ~27.9%% of its uncontended
	// bandwidth; accept a 5-40%% collapse band.
	worst := rows[len(rows)-1].BandwidthGbps / base
	if worst > 0.40 || worst < 0.05 {
		t.Errorf("max-pressure fraction = %.2f, want 0.05-0.40 (~0.28 in the paper)", worst)
	}
	// Monotone: more pressure, less bandwidth.
	for i := 1; i < len(rows); i++ {
		if rows[i].BandwidthGbps > rows[i-1].BandwidthGbps*1.05 {
			t.Errorf("bandwidth rose as pressure grew: %v", rows)
		}
	}
	// And observed memory latency rises under pressure.
	if rows[len(rows)-1].MemReadNs <= rows[1].MemReadNs {
		t.Error("memory latency should rise under pressure")
	}
}

// ---- Fig. 7 ----

func TestFig7BurstStructure(t *testing.T) {
	pts := Fig7(spec.TableOne())
	// Six packets x 24 cachelines.
	if len(pts) != 6*24 {
		t.Fatalf("points = %d, want 144", len(pts))
	}
	// Bursts are compact in time (paper: ~143ns for one packet's 24
	// cachelines) and sequential in address.
	for b := 0; b < 6; b++ {
		span := Fig7BurstSpan(pts, b)
		if span < 50*sim.Nanosecond || span > 400*sim.Nanosecond {
			t.Errorf("burst %d span %v, want ~100-300ns", b, span)
		}
	}
	// Addresses within a burst are consecutive cachelines.
	prev := -1
	for _, p := range pts {
		if p.Burst == 2 {
			if prev >= 0 && p.RelLine != prev+1 {
				t.Fatalf("burst 2 not sequential: %d after %d", p.RelLine, prev)
			}
			prev = p.RelLine
		}
	}
	// Inter-burst gaps (wire pacing) dwarf intra-burst gaps (DMA pacing):
	// the temporal clustering of Fig. 7.
	wireGap := pts[24].RelTime - pts[23].RelTime
	dmaGap := pts[1].RelTime - pts[0].RelTime
	if wireGap < 5*dmaGap {
		t.Errorf("bursts not clustered: wire gap %v vs dma gap %v", wireGap, dmaGap)
	}
}

// ---- Fig. 12a ----

func TestFig12aPaperShape(t *testing.T) {
	rows, err := Fig12a(spec.TableOne(), 400, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	byCluster := map[workload.Cluster][]Fig12aRow{}
	for _, r := range rows {
		byCluster[r.Cluster] = append(byCluster[r.Cluster], r)
		// NetDIMM always wins on average.
		if r.NormVsDNIC() >= 1 || r.NormVsINIC() >= 1 {
			t.Errorf("%v @%v: NetDIMM did not win (%.3f vs dNIC, %.3f vs iNIC)",
				r.Cluster, r.SwitchLatency, r.NormVsDNIC(), r.NormVsINIC())
		}
	}
	// Gains shrink as switch latency grows (paper: 40.6%% at 25ns down to
	// 25.3%% at 200ns).
	for cl, rs := range byCluster {
		for i := 1; i < len(rs); i++ {
			if rs[i].NormVsDNIC() < rs[i-1].NormVsDNIC() {
				t.Errorf("%v: improvement should shrink with switch latency", cl)
			}
		}
	}
	// Averages across clusters per switch latency land in the paper's
	// 25-41%% band (we accept 15-50%%).
	for sl, red := range Fig12aAverages(rows) {
		if red < 0.15 || red > 0.50 {
			t.Errorf("switch %v: avg reduction %.1f%%, want 15-50%%", sl, red*100)
		}
	}
	// NetDIMM vs iNIC on traces: paper quotes 8.1-15.3%%; accept 5-20%%.
	var sumI float64
	for _, r := range rows {
		sumI += 1 - r.NormVsINIC()
	}
	avgI := sumI / float64(len(rows))
	if avgI < 0.05 || avgI > 0.25 {
		t.Errorf("avg reduction vs iNIC on traces = %.1f%%, want ~8-15%%", avgI*100)
	}
}

// ---- Fig. 12b ----

func TestFig12bPaperShape(t *testing.T) {
	rows := Fig12b(spec.TableOne(), 0)
	norms := map[workload.Cluster]map[netfunc.Kind]float64{}
	for _, r := range rows {
		if norms[r.Cluster] == nil {
			norms[r.Cluster] = map[netfunc.Kind]float64{}
		}
		norms[r.Cluster][r.Kind] = r.Norm()
	}
	for cl, m := range norms {
		// L3F: NetDIMM interferes less than iNIC (paper: 9.8-30.9%%
		// better).
		if m[netfunc.L3F] >= 1.0 {
			t.Errorf("%v: L3F norm %.3f, want < 1 (NetDIMM better)", cl, m[netfunc.L3F])
		}
		// DPI: NetDIMM interferes at least as much as iNIC (paper: 5.7-
		// 15.4%% worse). Small packets (webserver) sit near parity.
		if m[netfunc.DPI] < 0.95 {
			t.Errorf("%v: DPI norm %.3f, want >= ~1 (NetDIMM worse)", cl, m[netfunc.DPI])
		}
		// And DPI is always worse for NetDIMM than L3F.
		if m[netfunc.DPI] <= m[netfunc.L3F] {
			t.Errorf("%v: DPI norm %.3f should exceed L3F norm %.3f", cl, m[netfunc.DPI], m[netfunc.L3F])
		}
	}
	// Hadoop (MTU-heavy) shows the strongest effects in both directions.
	if norms[workload.Hadoop][netfunc.DPI] < norms[workload.Webserver][netfunc.DPI] {
		t.Error("hadoop DPI should interfere more than webserver DPI")
	}
	if norms[workload.Hadoop][netfunc.L3F] > norms[workload.Webserver][netfunc.L3F] {
		t.Error("hadoop L3F should benefit more than webserver L3F")
	}
}

// ---- Headline ----

func TestHeadlineNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("headline suite is slow")
	}
	h, err := RunHeadline(spec.TableOne(), 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.AvgReductionVsDNIC < 0.40 || h.AvgReductionVsDNIC > 0.58 {
		t.Errorf("headline vs dNIC = %.1f%%, paper 49.9%%", h.AvgReductionVsDNIC*100)
	}
	if h.AvgReductionVsINIC < 0.15 || h.AvgReductionVsINIC > 0.35 {
		t.Errorf("headline vs iNIC = %.1f%%, paper 25.9%%", h.AvgReductionVsINIC*100)
	}
	if len(h.TraceReductionBySwitch) != 4 {
		t.Fatalf("switch sweep cells = %d", len(h.TraceReductionBySwitch))
	}
	if h.L3FBest < 0.05 {
		t.Errorf("L3F best improvement = %.1f%%, paper up to 30.9%%", h.L3FBest*100)
	}
	if h.DPIWorst < 0.0 {
		t.Errorf("DPI worst delta = %.1f%%, paper up to +15.4%%", h.DPIWorst*100)
	}
}

// Sec. 3 positions iNIC.zcpy as the seemingly ideal architecture that
// NetDIMM competes with on different terms: NetDIMM matches its latency
// class (within 40% up to the MTU) while avoiding zero-copy's security /
// memory-exhaustion / pinning problems (L1) and the on-chip pollution
// (L3). This test pins that relationship, and the 8000 B jumbo frame as
// a recorded deviation.
func TestNetDIMMVsIdealZeroCopy(t *testing.T) {
	d := spec.TableOne().MustDerive()
	fabric := d.Fabric(100 * sim.Nanosecond)
	for i, size := range []int{64, 256, 1514, 8000} {
		ndTX, err := spec.TableOne().MustDerive().NewNetDIMM(uint64(60 + 2*i))
		if err != nil {
			t.Fatal(err)
		}
		ndRX, err := spec.TableOne().MustDerive().NewNetDIMM(uint64(61 + 2*i))
		if err != nil {
			t.Fatal(err)
		}
		p := nic.Packet{Size: size}
		nd := driver.OneWay(ndTX, ndRX, p, fabric, nil).Total()
		iz := driver.OneWay(d.NewINIC(true), d.NewINIC(true), p, fabric, nil).Total()
		ratio := float64(nd) / float64(iz)
		if size == 8000 {
			// Recorded deviation (EXPERIMENTS.md, Fig. 11): a jumbo frame's
			// lines wait for nMC queue slots on TX and RX, so NetDIMM
			// reads 4.953095µs, 1.53× iNIC.zcpy's 3.2348µs.
			if nd != 4953095 || iz != 3234800 {
				t.Errorf("size 8000: NetDIMM %v, iNIC.zcpy %v; the recorded deviation is 4.953095µs and 3.2348µs", nd, iz)
			}
		} else if ratio > 1.40 {
			t.Errorf("size %d: NetDIMM %v not in iNIC.zcpy's (%v) latency class (ratio %.2f)",
				size, nd, iz, ratio)
		}
	}
}
