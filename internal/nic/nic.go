// Package nic provides the machinery common to every NIC model in the
// simulator: packets, descriptor sizes, MMIO register buses with
// attachment-dependent access cost, and a DMA engine that can emit
// per-cacheline transfer traces (used for the paper's Fig. 7).
//
// The two baseline NIC architectures the paper compares against — the
// discrete PCIe NIC (dNIC) and the CPU-integrated NIC (iNIC) — are defined
// here; the NetDIMM device lives in internal/core.
package nic

import (
	"netdimm/internal/addrmap"
	"netdimm/internal/sim"
)

// EthernetOverheadBytes is the per-frame overhead on the wire: preamble +
// SFD (8) + FCS (4) + minimum IFG (12).
const EthernetOverheadBytes = 24

// MTU is the maximum transmission unit used throughout the paper (1514B
// frames: 1500B payload + 14B Ethernet header).
const MTU = 1514

// Packet is one network packet traversing the simulation.
type Packet struct {
	ID   uint64
	Size int // frame bytes excluding preamble/FCS/IFG
	Born sim.Time
}

// Cachelines returns the number of 64B cachelines the packet occupies in
// memory — 1 to 24 for MTU-sized frames (paper Sec. 4.1).
func (p Packet) Cachelines() int {
	n := (p.Size + int(addrmap.CachelineSize) - 1) / int(addrmap.CachelineSize)
	if n < 1 {
		n = 1
	}
	return n
}

// DescriptorBytes is the in-memory size of one TX or RX ring descriptor:
// a DMA buffer pointer plus length and status flags in two 64-bit words,
// matching Alg. 1's "total size is 64 bits" kick-off write for size+flags.
const DescriptorBytes = 16
