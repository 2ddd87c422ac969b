// Package netfunc models the two network functions the paper uses to
// bracket the packet-processing spectrum (Sec. 5.1): L3 Forwarding (L3F),
// which makes a forwarding decision from the packet header alone, and Deep
// Packet Inspection (DPI), which scans the entire payload. The simulator
// is timing-only, so a function is its memory footprint: how many
// cachelines of a packet the CPU must fetch, which is all the Fig. 12(b)
// interference study reads.
package netfunc

import (
	"fmt"

	"netdimm/internal/nic"
)

// Kind selects a network function.
type Kind int

const (
	// L3F forwards on header information only.
	L3F Kind = iota
	// DPI processes the entire header and payload.
	DPI
)

func (k Kind) String() string {
	switch k {
	case L3F:
		return "L3F"
	case DPI:
		return "DPI"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// LinesTouched returns how many cachelines of the packet the CPU must
// fetch: one (the header, served by nCache on a NetDIMM) for L3F, the full
// packet for DPI. This is the quantity that drives the Fig. 12(b) memory
// interference difference.
func (k Kind) LinesTouched(p nic.Packet) int {
	if k == L3F {
		return 1
	}
	return p.Cachelines()
}
