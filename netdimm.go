package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/driver"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
)

// Machine is one simulated server endpoint with a particular NIC
// architecture. Machines are single-goroutine objects; build one per
// endpoint per experiment.
type Machine struct {
	impl driver.Machine
}

// Name reports the configuration ("dNIC", "dNIC.zcpy", "iNIC",
// "iNIC.zcpy", "NetDIMM").
func (m *Machine) Name() string { return m.impl.Name() }

// NewDNICWithConfig builds a discrete-NIC server from a configuration,
// optionally with a zero-copy driver: the PCIe attachment link (x8 PCIe
// Gen4 in Table 1) and driver costs derive from cfg.
func NewDNICWithConfig(cfg Config, zeroCopy bool) (*Machine, error) {
	d, err := cfg.Derive()
	if err != nil {
		return nil, err
	}
	return &Machine{impl: d.NewDNIC(zeroCopy)}, nil
}

// NewINICWithConfig builds a server with a CPU-integrated NIC from a
// configuration, optionally with a zero-copy driver.
func NewINICWithConfig(cfg Config, zeroCopy bool) (*Machine, error) {
	d, err := cfg.Derive()
	if err != nil {
		return nil, err
	}
	return &Machine{impl: d.NewINIC(zeroCopy)}, nil
}

// NewNetDIMMWithConfig builds a NetDIMM server from a configuration:
// device, NET_0 memory zone, allocCache and the Algorithm 1 driver (a 16GB
// NetDIMM in Table 1). The device geometry, local DRAM timing and NET_0
// zone placement derive from cfg. The seed determines nCache replacement
// randomness; distinct endpoints should use distinct seeds.
func NewNetDIMMWithConfig(cfg Config, seed uint64) (*Machine, error) {
	d, err := cfg.Derive()
	if err != nil {
		return nil, err
	}
	nd, err := d.NewNetDIMM(seed)
	if err != nil {
		return nil, err
	}
	return &Machine{impl: nd}, nil
}

// LatencyBreakdown is a one-way packet latency decomposed into the
// components of the paper's Fig. 11.
type LatencyBreakdown struct {
	TxCopy       time.Duration
	RxCopy       time.Duration
	TxDMA        time.Duration
	RxDMA        time.Duration
	Wire         time.Duration
	IOReg        time.Duration
	TxFlush      time.Duration
	RxInvalidate time.Duration
	Total        time.Duration
}

// NewLatencyBreakdown converts a simulated breakdown, such as a
// Fig11Result's DNIC, INIC or NetDIMM, to whole nanoseconds.
func NewLatencyBreakdown(b stats.Breakdown) LatencyBreakdown {
	return LatencyBreakdown{
		TxCopy:       b[stats.TxCopy].Duration(),
		RxCopy:       b[stats.RxCopy].Duration(),
		TxDMA:        b[stats.TxDMA].Duration(),
		RxDMA:        b[stats.RxDMA].Duration(),
		Wire:         b[stats.Wire].Duration(),
		IOReg:        b[stats.IOReg].Duration(),
		TxFlush:      b[stats.TxFlush].Duration(),
		RxInvalidate: b[stats.RxInvalidate].Duration(),
		Total:        b.Total().Duration(),
	}
}

// String renders the non-zero components.
func (l LatencyBreakdown) String() string {
	s := ""
	add := func(name string, v time.Duration) {
		if v > 0 {
			s += fmt.Sprintf("%s=%v ", name, v)
		}
	}
	add("txCopy", l.TxCopy)
	add("rxCopy", l.RxCopy)
	add("txDMA", l.TxDMA)
	add("rxDMA", l.RxDMA)
	add("wire", l.Wire)
	add("ioReg", l.IOReg)
	add("txFlush", l.TxFlush)
	add("rxInvalidate", l.RxInvalidate)
	return s + fmt.Sprintf("total=%v", l.Total)
}

// OneWayLatencyWithConfig sends one packet of the given size from tx to rx
// through a single switch, over a fabric whose link rate, PHY model and
// switch latency derive from cfg, and returns the latency decomposition.
// Repeated calls on stateful machines (NetDIMM) reflect warmed device
// state.
func OneWayLatencyWithConfig(cfg Config, tx, rx *Machine, packetSize int) (LatencyBreakdown, error) {
	if packetSize <= 0 {
		return LatencyBreakdown{}, fmt.Errorf("netdimm: packet size must be positive, got %d", packetSize)
	}
	if tx == nil || rx == nil {
		return LatencyBreakdown{}, fmt.Errorf("netdimm: nil machine")
	}
	if err := cfg.Validate(); err != nil {
		return LatencyBreakdown{}, err
	}
	fabric := cfg.AnalyticFabric(sim.Time(cfg.SwitchLatNs) * sim.Nanosecond)
	return NewLatencyBreakdown(driver.OneWay(tx.impl, rx.impl, nic.Packet{Size: packetSize}, fabric, nil)), nil
}
