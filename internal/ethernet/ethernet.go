// Package ethernet models the physical network between servers: 40GbE
// links (serialisation + PHY), switches with configurable port-to-port
// latency, and the clos datacenter fabric used for the Facebook trace
// replay (paper Sec. 5.1: "We simulate the clos network topology of
// Facebook datacenter ... all the network devices in the datacenter has a
// bandwidth of 40Gbps").
package ethernet

import (
	"fmt"

	"netdimm/internal/nic"
	"netdimm/internal/sim"
)

// Link is one Ethernet link.
type Link struct {
	// BitsPerSec is the line rate (40e9 throughout the paper).
	BitsPerSec float64
	// PHYLatency is the fixed transceiver + cable latency per traversal.
	PHYLatency sim.Time
}

// LinkGbps returns a link at the given line rate with a typical
// short-reach PHY — the knob a system configuration's NetworkGbps drives
// (the paper's link is LinkGbps(40)).
func LinkGbps(gbps float64) Link {
	return Link{BitsPerSec: gbps * 1e9, PHYLatency: 50 * sim.Nanosecond}
}

// SerializeTime returns the wire occupancy of one frame of n bytes,
// including preamble/FCS/IFG overhead.
func (l Link) SerializeTime(n int) sim.Time {
	bits := float64(n+nic.EthernetOverheadBytes) * 8
	return sim.Time(bits / l.BitsPerSec * float64(sim.Second))
}

// TransferTime returns serialisation plus PHY latency for one traversal.
func (l Link) TransferTime(n int) sim.Time { return l.SerializeTime(n) + l.PHYLatency }

// Switch is a store-and-forward or cut-through switch; Latency is its
// port-to-port latency (the paper sweeps 25/50/100/200ns in Fig. 12a).
type Switch struct {
	Latency sim.Time
	// CutThrough: if false, the switch re-serialises the full frame per
	// hop (store-and-forward); if true only the header is buffered.
	CutThrough bool
}

// HopTime returns the delay the switch adds for a frame of n bytes on a
// link l (excluding the first serialisation onto the wire, which the
// sender pays).
func (s Switch) HopTime(l Link, n int) sim.Time {
	if s.CutThrough {
		return s.Latency + l.PHYLatency
	}
	return s.Latency + l.TransferTime(n)
}

// Locality classifies where a flow's endpoints sit relative to each other;
// it determines the hop count through the clos fabric (paper Sec. 5.1:
// database traffic is inter-cluster and inter-datacenter, webserver
// inter-cluster intra-datacenter, hadoop intra-cluster).
type Locality int

const (
	// IntraRack: both endpoints under one ToR.
	IntraRack Locality = iota
	// IntraCluster: through the cluster fabric switches.
	IntraCluster
	// IntraDatacenter: across clusters through spine switches.
	IntraDatacenter
	// InterDatacenter: across datacenters (adds WAN propagation).
	InterDatacenter
)

func (lo Locality) String() string {
	switch lo {
	case IntraRack:
		return "intra-rack"
	case IntraCluster:
		return "intra-cluster"
	case IntraDatacenter:
		return "intra-datacenter"
	case InterDatacenter:
		return "inter-datacenter"
	default:
		return fmt.Sprintf("Locality(%d)", int(lo))
	}
}

// Fabric is a clos topology parameterised by its switch and link models.
type Fabric struct {
	Link   Link
	Switch Switch
	// InterDCPropagation is the extra one-way propagation for
	// inter-datacenter traffic.
	InterDCPropagation sim.Time
}

// NewFabricWith returns a clos fabric built from the given link model —
// the constructor a derived system configuration uses.
func NewFabricWith(link Link, switchLatency sim.Time) Fabric {
	return Fabric{
		Link:               link,
		Switch:             Switch{Latency: switchLatency, CutThrough: true},
		InterDCPropagation: 5 * sim.Microsecond,
	}
}

// Hops returns the switch count for a flow of the given locality in a
// 3-tier clos: ToR (1), ToR-fabric-ToR (3), ToR-fabric-spine-fabric-ToR
// (5), plus DC-edge routers for inter-DC (7).
func (f Fabric) Hops(lo Locality) int {
	switch lo {
	case IntraRack:
		return 1
	case IntraCluster:
		return 3
	case IntraDatacenter:
		return 5
	default:
		return 7
	}
}

// WireTime returns the full physical-network one-way latency of a frame of
// n bytes for a flow of the given locality: first serialisation, then one
// HopTime per switch, plus inter-DC propagation where applicable.
func (f Fabric) WireTime(n int, lo Locality) sim.Time {
	t := f.Link.TransferTime(n)
	hops := f.Hops(lo)
	for i := 0; i < hops; i++ {
		t += f.Switch.HopTime(f.Link, n)
	}
	if lo == InterDatacenter {
		t += f.InterDCPropagation
	}
	return t
}

// DirectWireTime is the point-to-point wire latency used in the Fig. 4 and
// Fig. 11 experiments: two nodes connected through one switch.
func (f Fabric) DirectWireTime(n int) sim.Time {
	return f.Link.TransferTime(n) + f.Switch.HopTime(f.Link, n)
}
