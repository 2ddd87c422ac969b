// Package netfunc implements the two network functions the paper uses to
// bracket the packet-processing spectrum (Sec. 5.1): L3 Forwarding (L3F),
// which makes a forwarding decision from the packet header alone, and Deep
// Packet Inspection (DPI), which scans the entire payload. Both are real
// implementations — a longest-prefix-match table and an Aho-Corasick
// multi-pattern matcher — plus the memory-footprint model the interference
// experiments need (how many cachelines of a packet each function touches).
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

// IPv4 is a host-order IPv4 address.
type IPv4 uint32

// String renders dotted quad.
func (a IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Route is one forwarding entry: a prefix and its next hop.
type Route struct {
	Prefix IPv4
	Bits   int // prefix length 0..32
	// NextHop is the egress port / next-hop identifier.
	NextHop int
}

// Table is a longest-prefix-match forwarding table implemented as a binary
// trie — the data structure behind the L3F function.
type Table struct {
	root   *trieNode
	routes int
}

type trieNode struct {
	children [2]*trieNode
	route    *Route
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{root: &trieNode{}} }

// Len returns the number of installed routes.
func (t *Table) Len() int { return t.routes }

// Insert adds or replaces a route. Invalid prefix lengths are rejected.
func (t *Table) Insert(r Route) error {
	if r.Bits < 0 || r.Bits > 32 {
		return fmt.Errorf("netfunc: prefix length %d out of range", r.Bits)
	}
	n := t.root
	for i := 0; i < r.Bits; i++ {
		bit := (r.Prefix >> (31 - i)) & 1
		if n.children[bit] == nil {
			n.children[bit] = &trieNode{}
		}
		n = n.children[bit]
	}
	if n.route == nil {
		t.routes++
	}
	rr := r
	n.route = &rr
	return nil
}

// Lookup returns the longest-prefix-match route for dst, or false if no
// route covers it.
func (t *Table) Lookup(dst IPv4) (Route, bool) {
	n := t.root
	var best *Route
	if n.route != nil {
		best = n.route
	}
	for i := 0; i < 32 && n != nil; i++ {
		bit := (dst >> (31 - i)) & 1
		n = n.children[bit]
		if n != nil && n.route != nil {
			best = n.route
		}
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// Forward parses the destination address out of a packet header (bytes
// 30..34 of an Ethernet+IPv4 frame, network order) and looks it up. It
// returns the next hop, or an error for frames too short to carry IPv4.
func (t *Table) Forward(header []byte) (int, error) {
	const dstOff = 30 // 14B Ethernet + 16B into IPv4 header
	if len(header) < dstOff+4 {
		return 0, fmt.Errorf("netfunc: header too short (%dB) for IPv4", len(header))
	}
	dst := IPv4(header[dstOff])<<24 | IPv4(header[dstOff+1])<<16 |
		IPv4(header[dstOff+2])<<8 | IPv4(header[dstOff+3])
	r, ok := t.Lookup(dst)
	if !ok {
		return 0, fmt.Errorf("netfunc: no route to %v", dst)
	}
	return r.NextHop, nil
}
