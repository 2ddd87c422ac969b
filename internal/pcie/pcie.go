// Package pcie is an analytical model of the PCI Express interconnect: TLP
// framing overheads, posted-write vs non-posted-read semantics, and DMA
// streaming bandwidth. The paper uses the same modelling approach (its own
// analytical PCIe model from Alian et al. [20], with latency figures from
// Neugebauer et al. [59], "Understanding PCIe performance for end host
// networking").
package pcie

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"netdimm/internal/sim"
)

// Gen is a PCIe generation.
type Gen int

const (
	Gen3 Gen = 3
	Gen4 Gen = 4
	Gen5 Gen = 5
)

// perLaneGBps returns the raw per-lane data rate in bytes/s after line
// coding (128b/130b for Gen3+).
func (g Gen) perLaneBytesPerSec() float64 {
	switch g {
	case Gen3:
		return 8e9 / 8 * (128.0 / 130.0) // 8 GT/s
	case Gen4:
		return 16e9 / 8 * (128.0 / 130.0) // 16 GT/s
	case Gen5:
		return 32e9 / 8 * (128.0 / 130.0) // 32 GT/s
	default:
		panic(fmt.Sprintf("pcie: unsupported generation %d", int(g)))
	}
}

// Link is one PCIe link with fixed protocol-stack latency constants.
//
// The latency constants follow the measurements in [59]: a direct-attached
// 64B non-posted read completes in roughly 350-700ns (two traversals of the
// root complex + endpoint stacks plus completion turnaround; ~900ns medians
// include switch hops), and a posted write is visible at the endpoint after
// a single traversal, ~200ns.
type Link struct {
	Gen   Gen
	Lanes int

	// StackLatency is the one-way traversal latency of the PCIe stack
	// (PHY + DLL + TLP processing at both ends).
	StackLatency sim.Time
	// CompletionOverhead is the extra endpoint processing to turn around a
	// non-posted request into a completion TLP.
	CompletionOverhead sim.Time
	// MaxPayload is the maximum TLP payload in bytes (typically 256).
	MaxPayload int
	// HeaderBytes is the TLP+framing overhead per packet on the wire
	// (TLP header 12-16B + DLL 6B + framing 2B; 24B is representative).
	HeaderBytes int

	// Obs, when attached, tallies every modelled transfer (see obs.go).
	// The pointer survives value copies of the Link, so instrumenting a
	// device's embedded link instruments all of its uses.
	Obs *LinkObs
}

// NewLink returns a link with [59]-calibrated constants.
func NewLink(g Gen, lanes int) Link {
	if lanes <= 0 {
		panic("pcie: lanes must be positive")
	}
	return Link{
		Gen:                g,
		Lanes:              lanes,
		StackLatency:       150 * sim.Nanosecond,
		CompletionOverhead: 50 * sim.Nanosecond,
		MaxPayload:         256,
		HeaderBytes:        24,
	}
}

// String renders e.g. "PCIe Gen4 x8".
func (l Link) String() string { return fmt.Sprintf("PCIe Gen%d x%d", int(l.Gen), l.Lanes) }

// ParseLink resolves a PCIe description from a system configuration
// (Table 1's "x8 PCIe Gen4" string) to a link with [59]-calibrated
// constants. Tokens may appear in any order and case: a lane count is
// "x<N>", a generation is "Gen<N>" (3, 4 or 5), and the literal "PCIe" is
// ignored.
func ParseLink(s string) (Link, error) {
	gen, lanes := 0, 0
	// Walk the fields in place: a configuration is validated on every
	// one-way packet of the public API, so parsing must not allocate.
	for rest := strings.TrimLeftFunc(s, unicode.IsSpace); rest != ""; rest = strings.TrimLeftFunc(rest, unicode.IsSpace) {
		tok := rest
		if end := strings.IndexFunc(rest, unicode.IsSpace); end >= 0 {
			tok, rest = rest[:end], rest[end:]
		} else {
			rest = ""
		}
		switch {
		case strings.EqualFold(tok, "pcie"):
		case len(tok) >= 3 && strings.EqualFold(tok[:3], "gen"):
			n, err := strconv.Atoi(tok[3:])
			if err != nil || gen != 0 {
				return Link{}, parseLinkErr(s)
			}
			gen = n
		case len(tok) >= 1 && (tok[0] == 'x' || tok[0] == 'X'):
			n, err := strconv.Atoi(tok[1:])
			if err != nil || lanes != 0 {
				return Link{}, parseLinkErr(s)
			}
			lanes = n
		default:
			return Link{}, parseLinkErr(s)
		}
	}
	if gen < int(Gen3) || gen > int(Gen5) {
		return Link{}, fmt.Errorf("pcie: unsupported generation in %q (known: Gen3, Gen4, Gen5)", s)
	}
	if lanes < 1 || lanes > 32 {
		return Link{}, fmt.Errorf("pcie: lane count in %q must be x1..x32", s)
	}
	return NewLink(Gen(gen), lanes), nil
}

func parseLinkErr(s string) error {
	return fmt.Errorf("pcie: cannot parse link %q (expected e.g. \"x8 PCIe Gen4\")", s)
}

// RawBandwidth returns bytes/s per direction before TLP overhead.
func (l Link) RawBandwidth() float64 {
	return l.Gen.perLaneBytesPerSec() * float64(l.Lanes)
}

// EffectiveBandwidth returns the usable bytes/s for a stream of TLPs with
// the given payload size per TLP (capped at MaxPayload).
func (l Link) EffectiveBandwidth(payload int) float64 {
	if payload <= 0 {
		payload = 1
	}
	if payload > l.MaxPayload {
		payload = l.MaxPayload
	}
	eff := float64(payload) / float64(payload+l.HeaderBytes)
	return l.RawBandwidth() * eff
}

// serialize returns the wire time of one TLP carrying n payload bytes.
func (l Link) serialize(n int) sim.Time {
	total := float64(n + l.HeaderBytes)
	return sim.Time(total / l.RawBandwidth() * float64(sim.Second))
}

// PostedWrite returns the one-way latency until a posted write (MWr) of n
// bytes is visible at the far endpoint: doorbell writes, small descriptor
// writes.
func (l Link) PostedWrite(n int) sim.Time {
	t := l.StackLatency + l.serialize(n)
	l.Obs.record(n, t)
	return t
}

// ReadRoundTrip returns the latency of a non-posted read (MRd) of n bytes:
// request traversal, endpoint turnaround, completion traversal with data.
// I/O register reads and descriptor fetches over PCIe pay this in full.
func (l Link) ReadRoundTrip(n int) sim.Time {
	tlps := l.tlpCount(n)
	// Request TLP one way, completion(s) back with data.
	t := 2*l.StackLatency + l.CompletionOverhead + sim.Time(tlps-1)*l.serialize(l.MaxPayload) + l.serialize(l.lastTLP(n))
	l.Obs.record(n, t)
	return t
}

// DMAWrite returns the time for a device-initiated DMA write of n bytes to
// host memory (posted stream): first-TLP latency plus streaming at
// effective bandwidth.
func (l Link) DMAWrite(n int) sim.Time {
	if n <= 0 {
		l.Obs.record(0, l.StackLatency)
		return l.StackLatency
	}
	stream := sim.Time(float64(n) / l.EffectiveBandwidth(l.MaxPayload) * float64(sim.Second))
	t := l.StackLatency + stream
	l.Obs.record(n, t)
	return t
}

// DMARead returns the time for a device-initiated DMA read of n bytes from
// host memory: a non-posted request per MaxPayload chunk, completions
// streamed back; the round trip is paid once and the rest pipelines.
func (l Link) DMARead(n int) sim.Time {
	if n <= 0 {
		return l.ReadRoundTrip(0)
	}
	stream := sim.Time(float64(n) / l.EffectiveBandwidth(l.MaxPayload) * float64(sim.Second))
	t := 2*l.StackLatency + l.CompletionOverhead + stream
	l.Obs.record(n, t)
	return t
}

func (l Link) tlpCount(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + l.MaxPayload - 1) / l.MaxPayload
}

func (l Link) lastTLP(n int) int {
	if n <= 0 {
		return 0
	}
	r := n % l.MaxPayload
	if r == 0 {
		return l.MaxPayload
	}
	return r
}
