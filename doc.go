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
//	netfunc   — L3 forwarding (LPM trie) and DPI (Aho-Corasick)
//	workload  — cluster trace generators, MLC-style injector
//	experiments — one entry point per paper figure
//
// # Quick start
//
//	cfg := netdimm.DefaultConfig() // Table 1, or netdimm.LoadScenario("ddr5")
//	tx, _ := netdimm.NewNetDIMMWithConfig(cfg, 1)
//	rx, _ := netdimm.NewNetDIMMWithConfig(cfg, 2)
//	lat, _ := netdimm.OneWayLatencyWithConfig(cfg, tx, rx, 256, 100*time.Nanosecond)
//	fmt.Println(lat.Total, lat.IOReg, lat.TxFlush)
//
// Each experiment family has one entry point that takes the Config it
// runs on: RunFig4WithConfig, RunFig5WithConfig, RunFig7WithConfig,
// RunFig11WithConfig, RunFig12aWithConfig, RunFig12bWithConfig,
// RunBandwidthWithConfig, RunAblationsWithConfig, RunMixedChannelWithConfig,
// ReplayTraceFileWithConfig, RunHeadlineWithConfig and the fault, load,
// rack, failure and collective sweeps. A family that records spans and
// metrics has an Observed twin returning an Observation as well.
// cmd/netdimm-sim declares every family once, in one table that drives
// both its command-line verbs and its campaign cells.
package netdimm
