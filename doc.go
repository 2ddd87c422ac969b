// Package netdimm is a discrete-event architectural simulator reproducing
// "NetDIMM: Low-Latency Near-Memory Network Interface Architecture"
// (Alian and Kim, MICRO 2019).
//
// NetDIMM integrates a full network interface into the buffer device of a
// DDR5 DIMM: the NIC shares the DIMM's local DRAM with the host through
// the NVDIMM-P asynchronous memory protocol, eliminating the PCIe
// interconnect from the packet path and replacing driver memory copies
// with in-DRAM RowClone buffer cloning. This package is the public facade
// over the simulator; the models live under internal/:
//
//	sim       — picosecond discrete-event kernel
//	addrmap   — physical address mapping (Fig. 9), flex interleaving (Fig. 10)
//	dram      — DDR4/DDR5 bank-state timing + RowClone FPM/PSM/GCM (Fig. 8)
//	memctrl   — FR-FCFS memory controller (host MCs and the nMC)
//	cache     — LLC with DDIO way restriction, flush/invalidate
//	pcie      — analytical PCIe model (TLPs, posted/non-posted)
//	nvdimmp   — DDR5 asynchronous XRD/RDY/SEND transactions (Fig. 3b)
//	kalloc    — Linux-like zones, NET_i zones, allocCache (Sec. 4.2)
//	nic       — descriptor rings, DMA traces, dNIC and iNIC devices
//	core      — the NetDIMM buffer device: nController, nCache, nPrefetcher
//	ethernet  — 40GbE links, switches, clos fabric
//	driver    — software-stack models incl. Algorithm 1
//	netfunc   — L3 forwarding and DPI memory footprints (Fig. 12b)
//	workload  — cluster trace generators, MLC-style injector
//	experiments — one entry point per paper figure
//
// # Quick start
//
//	cfg := netdimm.DefaultConfig() // Table 1, or netdimm.LoadScenario("ddr5")
//	tx, _ := netdimm.NewNetDIMMWithConfig(cfg, 1)
//	rx, _ := netdimm.NewNetDIMMWithConfig(cfg, 2)
//	lat, _ := netdimm.OneWayLatencyWithConfig(cfg, tx, rx, 256) // one cfg.SwitchLatNs switch
//	fmt.Println(lat.Total, lat.IOReg, lat.TxFlush)
//
// Each experiment family has one entry point that takes the Config it
// runs on: RunFig4WithConfig, RunFig5WithConfig, RunFig7WithConfig,
// RunFig12aWithConfig, RunFig12bWithConfig, RunBandwidthWithConfig,
// RunAblationsWithConfig, ReplayTraceFileWithConfig, RunHeadlineWithConfig,
// and, for the families that record spans and metrics, RunFig11Observed,
// RunMixedChannelObserved, RunFaultSweepObserved and RunFailSweepObserved,
// which also return an Observation (nil when Config.Obs is zero). The
// load, rack and collective sweeps have both a WithConfig entry point and
// an Observed twin.
//
// A family's result type is its internal row, aliased (Fig4Result,
// FailSweepResult, ...): latencies stay simulated picoseconds of type
// Time, whose Duration method truncates to whole nanoseconds. Fig11Result
// holds one breakdown per architecture; NewLatencyBreakdown converts one
// to the LatencyBreakdown that OneWayLatencyWithConfig returns.
// cmd/netdimm-sim declares every family once, in one table that drives
// both its command-line verbs and its campaign cells.
package netdimm
