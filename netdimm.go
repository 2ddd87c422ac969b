package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/driver"
	"netdimm/internal/ethernet"
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

// NewDNIC builds a Table 1 server with a discrete x8 PCIe Gen4 NIC,
// optionally with a zero-copy driver.
func NewDNIC(zeroCopy bool) *Machine {
	return &Machine{impl: driver.NewDNICMachine(zeroCopy)}
}

// NewDNICWithConfig builds a discrete-NIC server from a configuration: the
// PCIe attachment link and driver costs derive from cfg.
func NewDNICWithConfig(cfg Config, zeroCopy bool) (*Machine, error) {
	d, err := cfg.derive()
	if err != nil {
		return nil, err
	}
	return &Machine{impl: d.NewDNIC(zeroCopy)}, nil
}

// NewINIC builds a Table 1 server with a CPU-integrated NIC, optionally
// with a zero-copy driver.
func NewINIC(zeroCopy bool) *Machine {
	return &Machine{impl: driver.NewINICMachine(zeroCopy)}
}

// NewINICWithConfig builds an integrated-NIC server from a configuration.
func NewINICWithConfig(cfg Config, zeroCopy bool) (*Machine, error) {
	d, err := cfg.derive()
	if err != nil {
		return nil, err
	}
	return &Machine{impl: d.NewINIC(zeroCopy)}, nil
}

// NewNetDIMM builds a Table 1 server with a 16GB NetDIMM: device, NET_0
// memory zone, allocCache and the Algorithm 1 driver. The seed determines
// nCache replacement randomness; distinct endpoints should use distinct
// seeds.
func NewNetDIMM(seed uint64) (*Machine, error) {
	return NewNetDIMMWithConfig(DefaultConfig(), seed)
}

// NewNetDIMMWithConfig builds a NetDIMM server from a configuration: the
// device geometry, local DRAM timing and NET_0 zone placement derive from
// cfg.
func NewNetDIMMWithConfig(cfg Config, seed uint64) (*Machine, error) {
	d, err := cfg.derive()
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

func toDuration(t sim.Time) time.Duration {
	return time.Duration(int64(t) / int64(sim.Nanosecond))
}

func fromBreakdown(b stats.Breakdown) LatencyBreakdown {
	return LatencyBreakdown{
		TxCopy:       toDuration(b[stats.TxCopy]),
		RxCopy:       toDuration(b[stats.RxCopy]),
		TxDMA:        toDuration(b[stats.TxDMA]),
		RxDMA:        toDuration(b[stats.RxDMA]),
		Wire:         toDuration(b[stats.Wire]),
		IOReg:        toDuration(b[stats.IOReg]),
		TxFlush:      toDuration(b[stats.TxFlush]),
		RxInvalidate: toDuration(b[stats.RxInvalidate]),
		Total:        toDuration(b.Total()),
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

// OneWayLatency sends one packet of the given size from tx to rx through a
// single switch with the given port-to-port latency, and returns the
// latency decomposition. Repeated calls on stateful machines (NetDIMM)
// reflect warmed device state.
func OneWayLatency(tx, rx *Machine, packetSize int, switchLatency time.Duration) (LatencyBreakdown, error) {
	if packetSize <= 0 {
		return LatencyBreakdown{}, fmt.Errorf("netdimm: packet size must be positive, got %d", packetSize)
	}
	if tx == nil || rx == nil {
		return LatencyBreakdown{}, fmt.Errorf("netdimm: nil machine")
	}
	fabric := ethernet.NewFabric(sim.FromDuration(switchLatency))
	b := driver.OneWay(tx.impl, rx.impl, nic.Packet{Size: packetSize}, fabric)
	return fromBreakdown(b), nil
}

// OneWayLatencyWithConfig is OneWayLatency over a fabric derived from the
// configuration (its link rate and PHY model come from cfg rather than the
// Table 1 defaults).
func OneWayLatencyWithConfig(cfg Config, tx, rx *Machine, packetSize int, switchLatency time.Duration) (LatencyBreakdown, error) {
	if packetSize <= 0 {
		return LatencyBreakdown{}, fmt.Errorf("netdimm: packet size must be positive, got %d", packetSize)
	}
	if tx == nil || rx == nil {
		return LatencyBreakdown{}, fmt.Errorf("netdimm: nil machine")
	}
	d, err := cfg.derive()
	if err != nil {
		return LatencyBreakdown{}, err
	}
	fabric := d.Fabric(sim.FromDuration(switchLatency))
	b := driver.OneWay(tx.impl, rx.impl, nic.Packet{Size: packetSize}, fabric)
	return fromBreakdown(b), nil
}
