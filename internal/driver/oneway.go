package driver

import (
	"netdimm/internal/core"
	"netdimm/internal/ethernet"
	"netdimm/internal/kalloc"
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/pcie"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
)

// OneWay composes the full one-way latency of sending packet p from the tx
// machine to the rx machine over the fabric's point-to-point path: driver
// TX, wire, driver RX (the structure of the paper's Fig. 4 and Fig. 11
// experiments). A non-nil cell c attaches the observability plane: driver
// phases become lifecycle spans on c's per-component tracks, PCIe links
// and NetDIMM devices publish their counters and series, and sim engines
// get event probes. Per-component track sums equal the returned
// breakdown's components by construction.
func OneWay(tx, rx Machine, p nic.Packet, fabric ethernet.Fabric, c *obs.Cell) stats.Breakdown {
	var rec *obs.Recorder
	if c != nil {
		rec = c.Recorder(tx.Name())
		attachObs(tx, c, rec, "tx")
		attachObs(rx, c, rec, "rx")
	}
	b := tx.TX(p)
	wire := fabric.DirectWireTime(p.Size)
	b.Add(stats.Wire, wire)
	rec.Advance(stats.Wire.String(), "wire", wire)
	return b.Plus(rx.RX(p))
}

// attachObs wires one endpoint's hooks into the cell: the shared recorder
// for driver phase spans, plus whatever the concrete machine exposes —
// PCIe link counters for a dNIC, device/rank/controller hooks and a
// kernel-event probe for a NetDIMM. side distinguishes the two endpoints
// in metric names ("tx"/"rx").
func attachObs(m Machine, c *obs.Cell, rec *obs.Recorder, side string) {
	reg := c.Metrics()
	switch d := m.(type) {
	case *HWDriver:
		d.Rec = rec
		if dn, ok := d.Dev.(nic.DNIC); ok && reg != nil {
			dn.Link.Obs = pcie.NewLinkObs(reg, d.Name()+"."+side+".pcie")
			d.Dev = dn
		}
	case *NetDIMMDriver:
		d.Rec = rec
		d.Dev.Observe(c, "NetDIMM."+side)
		obs.NewEngineProbe(reg, "NetDIMM."+side+".engine").Attach(d.Eng)
	}
}

// NewMachine wraps a NIC device model and a software cost set into a
// polled-driver endpoint — the constructor a derived system configuration
// uses for dNIC and iNIC endpoints.
func NewMachine(dev nic.Device, costs Costs, zeroCopy bool) *HWDriver {
	return &HWDriver{Dev: dev, Costs: costs, ZeroCopy: zeroCopy}
}

// NewNetDIMMMachineWith builds a NetDIMM endpoint from an explicit device
// configuration, NET_0 zone base and software cost set — the constructor a
// derived system configuration uses.
func NewNetDIMMMachineWith(cfg core.Config, zoneBase int64, costs Costs) (*NetDIMMDriver, error) {
	eng := sim.NewEngine()
	dev := core.NewDevice(eng, cfg)
	zone := kalloc.NewNetDIMMZone("NET_0", zoneBase, dev.Size())
	return NewNetDIMMDriver(eng, dev, zone, costs)
}
