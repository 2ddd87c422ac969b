package experiments

import (
	"netdimm/internal/driver"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
)

// BandwidthResult reports the sustained-throughput check of Sec. 5.2: the
// paper notes a caveat — NetDIMM sits on one memory channel — but shows it
// still delivers full 40Gbps line rate, because a single DDR4 channel's
// 12.8GB/s (102.4Gbps) far exceeds the NIC rate.
type BandwidthResult struct {
	Arch string
	// OfferedGbps is the line rate of the ingress stream.
	OfferedGbps float64
	// AchievedGbps is the sustained delivery rate to the application.
	AchievedGbps float64
	// PerPacketRx is the mean RX processing time per MTU packet.
	PerPacketRx sim.Time
	// ChannelHeadroom is offered NIC bandwidth / local channel bandwidth.
	ChannelHeadroom float64
	// Packets is the number of MTU packets the RX path ran: the requested
	// count for NetDIMM, one for dNIC and iNIC, whose cost is a pure
	// function of size.
	Packets int
}

// Sustained reports whether the architecture keeps up with line rate.
func (r BandwidthResult) Sustained() bool {
	return r.AchievedGbps >= 0.95*r.OfferedGbps
}

// RSSCores is the number of cores the polling driver spreads flows over
// (receive-side scaling); Table 1's CPU has eight cores, of which half
// serve the network stack in this experiment.
const RSSCores = 4

// Bandwidth streams MTU frames at 40GbE line rate through each
// architecture's RX path and measures whether processing keeps up. The RX
// path is the binding side: TX is paced by the same stages. Per-packet
// driver work spreads over RSSCores (receive-side scaling), as in any
// 40GbE deployment; NIC DMA and the wire pipeline with the CPU.
func Bandwidth(sp spec.Spec, packets int, parallelism int) ([]BandwidthResult, error) {
	if packets <= 0 {
		packets = DefaultPackets
	}

	// Each architecture is an independent cell with its own machine.
	out := make([]BandwidthResult, 3)
	errs := make([]error, 3)
	forEachCell(3, parallelism, func(i int) {
		d := sp.MustDerive()
		gap := d.Link.SerializeTime(nic.MTU) // line-rate arrival spacing
		wireBytes := float64(nic.MTU + nic.EthernetOverheadBytes)
		switch i {
		case 0:
			// NetDIMM: event-driven; packets arrive every gap and the
			// driver RX path must finish before the backlog grows without
			// bound. The device pipeline overlaps DMA with driver work, so
			// sustained throughput is bounded by the slower of the two; we
			// measure the serialized driver cost as the conservative bound.
			nd, err := d.NewNetDIMM(11)
			if err != nil {
				errs[i] = err
				return
			}
			var busy sim.Time
			for p := 0; p < packets; p++ {
				busy += driverSerial(nd.RX(nic.Packet{Size: nic.MTU}))
			}
			out[i] = result("NetDIMM", gap, busy/sim.Time(packets), wireBytes,
				d.Core.LocalTiming.BandwidthBytesPerSec, packets)
		default:
			// dNIC and iNIC: the analytic RX cost is a pure function of
			// size, so one MTU packet prices them all.
			var m driver.Machine
			if i == 1 {
				m = d.NewDNIC(false)
			} else {
				m = d.NewINIC(false)
			}
			out[i] = result(m.Name(), gap, driverSerial(m.RX(nic.Packet{Size: nic.MTU})), wireBytes, 0, 1)
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// driverSerial is the per-packet work that cannot overlap with the next
// packet's reception: the CPU-side driver stages. Wire transfer and NIC
// DMA pipeline with the driver (the NIC hardware runs in parallel with
// the CPU), so they do not bound steady-state throughput.
func driverSerial(b stats.Breakdown) sim.Time {
	return b.Total() - b[stats.Wire] - b[stats.RxDMA] - b[stats.TxDMA]
}

func result(arch string, gap, perPkt sim.Time, wireBytes, channelBW float64, packets int) BandwidthResult {
	offered := wireBytes * 8 / gap.Seconds() / 1e9
	achieved := offered
	effective := perPkt / RSSCores
	if effective > gap {
		// Processing-bound: deliveries are spaced by the per-core work
		// divided across the RSS cores.
		achieved = wireBytes * 8 / effective.Seconds() / 1e9
	}
	r := BandwidthResult{
		Arch:         arch,
		OfferedGbps:  offered,
		AchievedGbps: achieved,
		PerPacketRx:  perPkt,
		Packets:      packets,
	}
	if channelBW > 0 {
		r.ChannelHeadroom = offered * 1e9 / 8 / channelBW
	}
	return r
}
