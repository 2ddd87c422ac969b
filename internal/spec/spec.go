// Package spec is the configuration plane: it maps one validated system
// specification (the paper's Table 1, or any scenario derived from it) to
// the parameter sets of every substrate package — software costs, NetDIMM
// device config, memory-controller config, DRAM timing, PCIe link,
// Ethernet fabric and the NET_i zone bases.
//
// The root netdimm package's Config is Spec itself; the internal
// experiment runners consume the derived form, so every model constant in
// an experiment flows from one validated specification instead of
// per-package defaults.
package spec

import (
	"fmt"
	"strings"

	"netdimm/internal/addrmap"
	"netdimm/internal/collective"
	"netdimm/internal/core"
	"netdimm/internal/dram"
	"netdimm/internal/driver"
	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/fault"
	"netdimm/internal/memctrl"
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/pcie"
	"netdimm/internal/sim"
	"netdimm/internal/workload"
)

// Spec is the full simulated-system specification. The root package
// exports it as netdimm.Config.
type Spec struct {
	DRAM          string
	NetworkGbps   int
	SwitchLatNs   int
	PCIe          string
	NetDIMMSizeGB int
	// Fault configures deterministic fault injection; the zero value
	// disables every fault and leaves all experiments bit-identical to a
	// fault-free run.
	Fault fault.Spec
	// Obs selects observability collection (span tracing, metrics); the
	// zero value disables instrumentation entirely and keeps every hot
	// path allocation-free.
	Obs obs.Spec
	// Load shapes the rack-scale load sweep's traffic (incast fan-in,
	// cluster distribution, arrival process, port buffering); the zero
	// value selects the sweep defaults and affects no other experiment.
	Load workload.LoadSpec
	// Fabric shapes the switched network topology (leaf/spine clos shape,
	// ECMP seed, ECN congestion signal); the zero value is the degenerate
	// single-switch fabric every pre-fabric experiment built, changing no
	// output.
	Fabric fabric.Spec
	// Collective shapes the collective-communication sweep (operation,
	// rank count, payload and chunk sizes); the zero value selects the
	// sweep defaults and affects no other experiment.
	Collective collective.Spec
}

// TableOne returns the paper's Table 1 specification.
func TableOne() Spec {
	return Spec{
		DRAM:          "DDR4-2400",
		NetworkGbps:   40,
		SwitchLatNs:   100,
		PCIe:          "x8 PCIe Gen4",
		NetDIMMSizeGB: 16,
	}
}

// maxSwitchLatNs bounds SwitchLatNs at 1 s, far above any switch and far
// below the ~9.2e6 s at which its picosecond sim.Time wraps.
const maxSwitchLatNs = int(sim.Second / sim.Nanosecond)

// Validate checks the specification for internal consistency and returns
// an actionable error for the first violation found.
func (s Spec) Validate() error {
	switch {
	case s.NetworkGbps < 1:
		return fmt.Errorf("spec: NetworkGbps must be at least 1, got %d", s.NetworkGbps)
	case s.SwitchLatNs < 0:
		return fmt.Errorf("spec: SwitchLatNs must not be negative, got %d", s.SwitchLatNs)
	case s.SwitchLatNs > maxSwitchLatNs:
		return fmt.Errorf("spec: SwitchLatNs must be at most %d (1s): no switch is that slow, "+
			"and far larger values overflow the picosecond clock; got %d", maxSwitchLatNs, s.SwitchLatNs)
	case s.NetDIMMSizeGB < 8 || s.NetDIMMSizeGB%8 != 0:
		return fmt.Errorf("spec: NetDIMMSizeGB must be a positive multiple of the 8GB rank size, got %d", s.NetDIMMSizeGB)
	}
	if _, err := dram.ParseTiming(s.DRAM); err != nil {
		return fmt.Errorf("spec: DRAM: %w", err)
	}
	if _, err := pcie.ParseLink(s.PCIe); err != nil {
		return fmt.Errorf("spec: PCIe: %w", err)
	}
	if err := s.Fault.Validate(); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if err := s.Load.Validate(); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if err := s.Fabric.Validate(); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if err := s.Collective.Validate(); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	return nil
}

// Table renders the specification as the paper's Table 1.
func (s Spec) Table() string {
	var sb strings.Builder
	row := func(k, v string) { fmt.Fprintf(&sb, "%-34s %s\n", k, v) }
	sb.WriteString("Table 1: System configuration.\n")
	row("Cores (# cores, freq):", "(8, 3.4GHz)")
	row("Superscalar", "3 ways")
	row("ROB/IQ/LQ/SQ entries", "40/32/16/16")
	row("Caches (size): I/D/L2", "32KB/64KB/2MB")
	row("L1I/L1D/L2 latency", "1/2/12 cycles")
	row("DRAM", s.DRAM+"/16GB/2 channels")
	row("Network/Switch latency/#NetDIMM", fmt.Sprintf("%dGbE/%dns/1", s.NetworkGbps, s.SwitchLatNs))
	row("PCIe performance", s.PCIe)
	row("NetDIMM capacity", fmt.Sprintf("%dGB (two 8GB ranks)", s.NetDIMMSizeGB))
	if s.Fault.Enabled() {
		row("Fault injection", s.Fault.String())
	}
	if s.Load != (workload.LoadSpec{}) {
		hosts := s.Load.Hosts
		if hosts == 0 {
			hosts = 8
		}
		row("Load sweep", fmt.Sprintf("%d hosts incast, %s/%s traffic",
			hosts, orDefault(s.Load.Cluster, "database"), orDefault(s.Load.Process, "poisson")))
	}
	if s.Fabric != (fabric.Spec{}) {
		f := s.Fabric.Resolved()
		ecn := "off"
		if f.ECNThreshold > 0 {
			ecn = fmt.Sprintf("mark@%d, backoff %dns", f.ECNThreshold, f.ECNBackoffNs)
		}
		row("Fabric", fmt.Sprintf("%d leaves x %d spines, ECN %s", f.Leaves, f.Spines, ecn))
	}
	if s.Collective != (collective.Spec{}) {
		payload := s.Collective.PayloadBytes
		if payload == 0 {
			payload = collective.DefaultPayloadBytes
		}
		ranks := "4-128 ranks"
		if s.Collective.Ranks != 0 {
			ranks = fmt.Sprintf("%d ranks", s.Collective.Ranks)
		}
		row("Collective", fmt.Sprintf("%s, %s, %dB payload",
			orDefault(s.Collective.Op, "all ops"), ranks, payload))
	}
	return sb.String()
}

// orDefault substitutes def for an empty string.
func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// Derived is a Spec resolved into every per-package parameter set. It is
// read-only after Derive and safe to share across parallel experiment
// cells; the machine constructors below build fresh mutable state per call.
type Derived struct {
	Spec Spec

	// Costs is the driver software cost set: driver.DefaultCosts, the
	// constants calibrated to Fig. 11 for Table 1's core.
	Costs driver.Costs
	// Core is the NetDIMM device configuration with the base seed;
	// endpoint constructors override Seed per machine.
	Core core.Config
	// MC is the host/NetDIMM memory-controller configuration.
	MC memctrl.Config
	// HostTiming is the timing of the host DDR channels (and of the
	// NetDIMM's local modules, which share the channel's technology).
	HostTiming dram.Timing
	// PCIe is the dNIC attachment link.
	PCIe pcie.Link
	// Link is the Ethernet link model of every fabric built from this
	// specification.
	Link ethernet.Link
	// SwitchLatency is the default switch port-to-port latency.
	SwitchLatency sim.Time
}

// Derive validates the specification and resolves it into the parameter
// sets of every substrate package.
func (s Spec) Derive() (*Derived, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	timing, err := dram.ParseTiming(s.DRAM)
	if err != nil {
		return nil, err
	}
	link, err := pcie.ParseLink(s.PCIe)
	if err != nil {
		return nil, err
	}

	coreCfg := core.DefaultConfig()
	coreCfg.Ranks = int(int64(s.NetDIMMSizeGB) << 30 / addrmap.RankBytes)
	coreCfg.LocalTiming = timing

	return &Derived{
		Spec:          s,
		Costs:         driver.DefaultCosts(),
		Core:          coreCfg,
		MC:            memctrl.DefaultConfig(),
		HostTiming:    timing,
		PCIe:          link,
		Link:          s.link(),
		SwitchLatency: sim.Time(s.SwitchLatNs) * sim.Nanosecond,
	}, nil
}

// MustDerive is Derive for specifications already validated at an entry
// point (the experiment runners); it panics on an invalid Spec.
func (s Spec) MustDerive() *Derived {
	d, err := s.Derive()
	if err != nil {
		panic(err)
	}
	return d
}

// hostDDRBytes is Table 1's 16GB of conventional host DDR, the bottom of
// the physical address space (paper Fig. 10); the NET_i zones are stacked
// above it.
const hostDDRBytes = 16 << 30

// ZoneBase returns the physical base address of NetDIMM i's NET_i zone:
// NET_i regions of NetDIMMSizeGB each, stacked in order above the host
// DDR region.
func (d *Derived) ZoneBase(i int) int64 {
	return hostDDRBytes + int64(i)*int64(d.Spec.NetDIMMSizeGB)<<30
}

// Fabric builds an analytic clos fabric over the derived link with the
// given switch latency (use d.SwitchLatency for the specification's own
// value).
func (d *Derived) Fabric(switchLatency sim.Time) ethernet.Fabric {
	return d.Spec.AnalyticFabric(switchLatency)
}

// AnalyticFabric is Derived.Fabric without deriving the rest of the
// specification, so a per-packet caller stays allocation-free. The
// specification must be valid.
func (s Spec) AnalyticFabric(switchLatency sim.Time) ethernet.Fabric {
	return ethernet.NewFabricWith(s.link(), switchLatency)
}

// link is the Ethernet link model of the specification's NetworkGbps.
func (s Spec) link() ethernet.Link { return ethernet.LinkGbps(float64(s.NetworkGbps)) }

// NewTopology builds the event-driven switched topology of the Fabric
// block — hosts' uplink ports, leaf and spine switches with per-hop
// output queues — over the derived link and switch latency, on the engine
// p wraps.
func (d *Derived) NewTopology(p fabric.Placement, hosts, portBuffer int) *fabric.Topology {
	return fabric.New(p, d.Link, d.SwitchLatency, d.Spec.Fabric, hosts, portBuffer)
}

// NewDNIC builds a discrete-NIC endpoint on the derived PCIe link.
func (d *Derived) NewDNIC(zeroCopy bool) *driver.HWDriver {
	return driver.NewMachine(nic.NewDNICWith(d.PCIe), d.Costs, zeroCopy)
}

// NewINIC builds an integrated-NIC endpoint.
func (d *Derived) NewINIC(zeroCopy bool) *driver.HWDriver {
	return driver.NewMachine(nic.NewINIC(), d.Costs, zeroCopy)
}

// NewNetDIMM builds a NetDIMM endpoint on NET_0 with the given device seed.
func (d *Derived) NewNetDIMM(seed uint64) (*driver.NetDIMMDriver, error) {
	cfg := d.Core
	cfg.Seed = seed
	return driver.NewNetDIMMMachineWith(cfg, d.ZoneBase(0), d.Costs)
}
