package netdimm

import (
	"fmt"
	"strings"

	"netdimm/internal/collective"
	"netdimm/internal/fabric"
	"netdimm/internal/fault"
	"netdimm/internal/obs"
	"netdimm/internal/spec"
	"netdimm/internal/workload"
)

// FaultConfig configures deterministic fault injection (packet loss,
// corruption, switch-port tail drops, NVDIMM-P RDY timeouts) and the
// retry/backoff policies that recover from it. It aliases the internal
// fault.Spec so Config converts to the derivation form directly; the zero
// value disables all injection and changes no experiment output.
type FaultConfig = fault.Spec

// ObsConfig selects observability collection: Trace records per-packet
// lifecycle spans for Chrome trace-event export, Metrics collects named
// counters and time series. It aliases the internal obs.Spec so Config
// converts to the derivation form directly; the zero value disables all
// instrumentation and changes no experiment output.
type ObsConfig = obs.Spec

// LoadConfig shapes the rack-scale load sweep's traffic: how many sender
// hosts fan in to the one receiver (the incast knob), which cluster
// distribution and arrival process generate packets, the egress buffer
// depth and the saturation-knee factor. It aliases the internal
// workload.LoadSpec so Config converts to the derivation form directly;
// the zero value selects the sweep defaults and affects no other
// experiment's output.
type LoadConfig = workload.LoadSpec

// FabricConfig shapes the switched network topology: how many leaf (rack)
// and spine switches the clos has, the ECMP flow-hash seed, and the ECN
// congestion signal (marking threshold and sender backoff). It aliases the
// internal fabric.Spec so Config converts to the derivation form directly;
// the zero value is the degenerate single-switch fabric every experiment
// built before the fabric plane existed and changes no output.
type FabricConfig = fabric.Spec

// CollectiveConfig shapes the collective-communication sweep (the
// `collsweep` experiment): which operation runs (ring allreduce, tree
// broadcast, reduce-scatter), over how many ranks, moving how much data in
// what chunk sizes. It aliases the internal collective.Spec so Config
// converts to the derivation form directly; the zero value selects the
// sweep defaults (all three ops over the 4–128 rank grid) and affects no
// other experiment's output.
type CollectiveConfig = collective.Spec

// Config is the simulated system configuration — the paper's Table 1. It is
// the single authoritative system specification: every machine constructor
// and experiment runner derives its per-package parameters (software costs,
// device config, DRAM timing, PCIe link, Ethernet fabric, NET_i zone
// placement) from one validated Config.
//
// Only the knobs that change some output are fields. The CPU enters the
// model through its driver cost set alone (clock, issue width, ROB and the
// L1D/L2 latencies), and every experiment places one NetDIMM behind
// Table 1's 16GB of two-channel host DDR, so Table 1's core count,
// IQ/LQ/SQ sizes, cache capacities, L1I latency, host DDR size, channel
// count and NetDIMM count are fixed and printed as such by Table.
type Config struct {
	CoreGHz       float64
	SuperscalarW  int
	ROBEntries    int
	L1DLatCycles  int
	L2LatCycles   int
	DRAM          string
	NetworkGbps   int
	SwitchLatNs   int
	PCIe          string
	NetDIMMSizeGB int
	// Fault injects deterministic network and memory-protocol faults; see
	// FaultConfig. Leave zero for the paper's fault-free experiments.
	Fault FaultConfig
	// Obs enables observability collection; see ObsConfig. Leave zero for
	// uninstrumented runs (the default for every pinned golden output).
	Obs ObsConfig
	// Load shapes the rack-scale load sweep (the `loadsweep` experiment);
	// see LoadConfig. Leave zero for the sweep defaults.
	Load LoadConfig
	// Fabric shapes the switched topology the load and rack sweeps build
	// (leaf/spine clos, ECMP, ECN); see FabricConfig. Leave zero for the
	// single-switch incast.
	Fabric FabricConfig
	// Collective shapes the collective-communication sweep (the `collsweep`
	// experiment); see CollectiveConfig. Leave zero for the sweep defaults.
	Collective CollectiveConfig
}

// DefaultConfig returns Table 1 of the paper.
func DefaultConfig() Config { return Config(spec.TableOne()) }

// Validate checks the configuration for internal consistency and returns an
// actionable error for the first violation found: unknown DRAM or PCIe
// strings, a non-positive clock or cache latency, a NetDIMM capacity that
// is not a whole number of ranks, and so on. Every entry point that accepts
// a Config validates it first.
func (c Config) Validate() error {
	return spec.Spec(c).Validate()
}

// spec converts the configuration to the internal derivation form (the two
// structs mirror each other field for field).
func (c Config) spec() spec.Spec { return spec.Spec(c) }

// derive validates the configuration and resolves it into every
// per-package parameter set.
func (c Config) derive() (*spec.Derived, error) { return spec.Spec(c).Derive() }

// Table renders the configuration as the paper's Table 1.
func (c Config) Table() string {
	var sb strings.Builder
	row := func(k, v string) { fmt.Fprintf(&sb, "%-34s %s\n", k, v) }
	sb.WriteString("Table 1: System configuration.\n")
	row("Cores (# cores, freq):", fmt.Sprintf("(8, %.1fGHz)", c.CoreGHz))
	row("Superscalar", fmt.Sprintf("%d ways", c.SuperscalarW))
	row("ROB/IQ/LQ/SQ entries", fmt.Sprintf("%d/32/16/16", c.ROBEntries))
	row("Caches (size): I/D/L2", "32KB/64KB/2MB")
	row("L1I/L1D/L2 latency", fmt.Sprintf("1/%d/%d cycles", c.L1DLatCycles, c.L2LatCycles))
	row("DRAM", c.DRAM+"/16GB/2 channels")
	row("Network/Switch latency/#NetDIMM", fmt.Sprintf("%dGbE/%dns/1", c.NetworkGbps, c.SwitchLatNs))
	row("PCIe performance", c.PCIe)
	row("NetDIMM capacity", fmt.Sprintf("%dGB (two 8GB ranks)", c.NetDIMMSizeGB))
	if c.Fault.Enabled() {
		row("Fault injection", c.Fault.String())
	}
	if c.Load != (LoadConfig{}) {
		hosts := c.Load.Hosts
		if hosts == 0 {
			hosts = 8
		}
		row("Load sweep", fmt.Sprintf("%d hosts incast, %s/%s traffic",
			hosts, orDefault(c.Load.Cluster, "database"), orDefault(c.Load.Process, "poisson")))
	}
	if c.Fabric != (FabricConfig{}) {
		f := c.Fabric.Resolved()
		ecn := "off"
		if f.ECNThreshold > 0 {
			ecn = fmt.Sprintf("mark@%d, backoff %dns", f.ECNThreshold, f.ECNBackoffNs)
		}
		row("Fabric", fmt.Sprintf("%d leaves x %d spines, ECN %s", f.Leaves, f.Spines, ecn))
	}
	if c.Collective != (CollectiveConfig{}) {
		payload := c.Collective.PayloadBytes
		if payload == 0 {
			payload = collective.DefaultPayloadBytes
		}
		ranks := "4-128 ranks"
		if c.Collective.Ranks != 0 {
			ranks = fmt.Sprintf("%d ranks", c.Collective.Ranks)
		}
		row("Collective", fmt.Sprintf("%s, %s, %dB payload",
			orDefault(c.Collective.Op, "all ops"), ranks, payload))
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
