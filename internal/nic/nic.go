// Package nic provides the machinery common to every NIC model in the
// simulator: packets, TX/RX descriptor rings, MMIO register buses with
// attachment-dependent access cost, and a DMA engine that can emit
// per-cacheline transfer traces (used for the paper's Fig. 7).
//
// The two baseline NIC architectures the paper compares against — the
// discrete PCIe NIC (dNIC) and the CPU-integrated NIC (iNIC) — are defined
// here; the NetDIMM device lives in internal/core.
package nic

import (
	"fmt"

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

// Descriptor is one TX or RX ring entry: a DMA buffer pointer plus length
// and status flags packed in 16 bytes (two 64-bit words, matching Alg. 1's
// "total size is 64 bits" kick-off write for size+flags).
type Descriptor struct {
	BufAddr int64
	Len     int
	Owned   bool // true: owned by hardware, false: owned by software
	Done    bool // hardware finished processing
}

// DescriptorBytes is the in-memory size of one descriptor.
const DescriptorBytes = 16

// Ring is a descriptor ring of fixed capacity shared by driver and NIC.
// Its slots grow with its occupancy, from none before the first Push.
type Ring struct {
	Name string
	Base int64 // physical address of slot 0
	n    int   // capacity
	q    sim.FIFO[Descriptor]
}

// NewRing returns a ring of n descriptors backed at physical address base.
func NewRing(name string, base int64, n int) *Ring {
	if n <= 0 {
		panic("nic: ring size must be positive")
	}
	return &Ring{Name: name, Base: base, n: n}
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return r.n }

// Len returns the number of occupied slots.
func (r *Ring) Len() int { return r.q.Len() }

// Full reports whether no slot is free.
func (r *Ring) Full() bool { return r.q.Len() == r.n }

// Empty reports whether no slot is occupied.
func (r *Ring) Empty() bool { return r.q.Len() == 0 }

// Push enqueues a descriptor at the producer index.
func (r *Ring) Push(d Descriptor) error {
	if r.Full() {
		return fmt.Errorf("nic: ring %s full (%d)", r.Name, r.n)
	}
	r.q.Push(d)
	return nil
}

// Peek returns the descriptor at the consumer index without removing it.
func (r *Ring) Peek() (Descriptor, error) {
	if r.Empty() {
		return Descriptor{}, fmt.Errorf("nic: ring %s empty", r.Name)
	}
	return *r.q.Head(), nil
}

// Pop dequeues the descriptor at the consumer index.
func (r *Ring) Pop() (Descriptor, error) {
	d, err := r.Peek()
	if err == nil {
		r.q.Drop()
	}
	return d, err
}

// MarkDone flags the descriptor pushed last, the one the NIC just
// fetched, as completed by hardware (without consuming it); the polling
// driver observes Done and pops.
func (r *Ring) MarkDone() error {
	if r.Empty() {
		return fmt.Errorf("nic: ring %s empty", r.Name)
	}
	r.q.Last().Done = true
	return nil
}
