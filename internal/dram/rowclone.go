package dram

import (
	"fmt"

	"netdimm/internal/addrmap"
	"netdimm/internal/sim"
)

// CloneMode is the in-memory buffer-cloning mode selected by the source and
// destination locations (paper Sec. 4.1, Fig. 8).
type CloneMode int

const (
	// FPM — fast parallel mode: source and destination share a bank
	// sub-array; the clone is two back-to-back row activations.
	FPM CloneMode = iota
	// PSM — pipeline serial mode: same DRAM device (rank), different banks;
	// cachelines are pipelined over the internal bus of the DRAM chips.
	PSM
	// GCM — general cloning mode: everything else; the NetDIMM buffer
	// device reads the source and writes it back, like a DMA engine close
	// to the memory chips.
	GCM

	// NumCloneModes counts the modes above, for arrays indexed by mode.
	NumCloneModes = int(GCM) + 1
)

func (m CloneMode) String() string {
	switch m {
	case FPM:
		return "FPM"
	case PSM:
		return "PSM"
	case GCM:
		return "GCM"
	default:
		return fmt.Sprintf("CloneMode(%d)", int(m))
	}
}

// CloneTiming parameterises the cost of one 4KB page clone per mode. The
// defaults follow Seshadri et al.'s RowClone measurements as cited by the
// paper: FPM reduces a 4KB copy to ~90ns; PSM is ~490ns; GCM degenerates to
// a pipelined read+write through the buffer device.
type CloneTiming struct {
	FPMPerPage sim.Time
	PSMPerPage sim.Time
	// GCMFixed is the engine setup cost; the data movement itself streams
	// the source out of and back into DRAM over the half-duplex local bus,
	// so it pays for 2x the bytes at channel bandwidth.
	GCMFixed sim.Time
}

// DefaultCloneTiming returns the paper-calibrated clone costs.
func DefaultCloneTiming() CloneTiming {
	return CloneTiming{
		FPMPerPage: 90 * sim.Nanosecond,
		PSMPerPage: 490 * sim.Nanosecond,
		GCMFixed:   100 * sim.Nanosecond,
	}
}

// CloneModeFor selects the cloning mode for a pair of DIMM-local addresses
// (paper Fig. 8): FPM within a sub-array, PSM within a rank, GCM otherwise.
func CloneModeFor(src, dst int64) CloneMode {
	switch {
	case addrmap.SameSubarray(src, dst):
		return FPM
	case addrmap.SameRank(src, dst):
		return PSM
	default:
		return GCM
	}
}

// CloneEngine performs in-memory buffer clones on a DIMM and accounts for
// their bank-state side effects.
type CloneEngine struct {
	timing CloneTiming
	dram   Timing
	ranks  []*Rank
}

// NewCloneEngine returns an engine cloning over the given ranks.
func NewCloneEngine(ct CloneTiming, dt Timing, ranks []*Rank) *CloneEngine {
	return &CloneEngine{timing: ct, dram: dt, ranks: ranks}
}

// pages returns the number of 4KB pages covered, minimum one: RowClone
// operates at row granularity, so even a 64B clone costs one page operation.
func pages(bytes int64) sim.Time {
	p := (bytes + addrmap.PageSize - 1) / addrmap.PageSize
	if p < 1 {
		p = 1
	}
	return sim.Time(p)
}

// Clone copies bytes from src to dst (both DIMM-local addresses) starting
// no earlier than now, returning the completion instant and the mode used.
func (e *CloneEngine) Clone(now sim.Time, src, dst int64, bytes int64) (done sim.Time, mode CloneMode) {
	mode = CloneModeFor(src, dst)
	n := pages(bytes)
	switch mode {
	case FPM:
		done = now + n*e.timing.FPMPerPage
		e.rankOf(src).stats.CloneFPM++
		// The two back-to-back activations leave the destination row open.
		e.touchRow(dst, done)
	case PSM:
		done = now + n*e.timing.PSMPerPage
		e.rankOf(src).stats.ClonePSM++
		e.touchRow(src, done)
		e.touchRow(dst, done)
	default: // GCM
		// GCM moves whole pages like the other modes (cloning is
		// row-granular): read out + write back over the half-duplex bus.
		move := e.dram.StreamTime(2 * int64(pages(bytes)) * addrmap.PageSize)
		done = now + e.timing.GCMFixed + move
		e.rankOf(src).stats.CloneGCM++
		e.touchRow(src, done)
		e.touchRow(dst, done)
	}
	return done, mode
}

// Latency returns the cost of a clone without performing it (for planners
// and analytical callers).
func (e *CloneEngine) Latency(src, dst int64, bytes int64) sim.Time {
	switch CloneModeFor(src, dst) {
	case FPM:
		return pages(bytes) * e.timing.FPMPerPage
	case PSM:
		return pages(bytes) * e.timing.PSMPerPage
	default:
		return e.timing.GCMFixed + e.dram.StreamTime(2*int64(pages(bytes))*addrmap.PageSize)
	}
}

func (e *CloneEngine) rankOf(local int64) *Rank {
	idx, _, _ := addrmap.BankRow(local)
	if idx >= len(e.ranks) {
		idx = len(e.ranks) - 1
	}
	return e.ranks[idx]
}

// touchRow marks the row open and its bank busy until done, so subsequent
// controller accesses observe the clone's bank-state footprint.
func (e *CloneEngine) touchRow(local int64, done sim.Time) {
	r := e.rankOf(local)
	_, bank, row := addrmap.BankRow(local)
	b := &r.banks[bank]
	b.openRow = row
	if b.readyAt < done {
		b.readyAt = done
	}
	if b.lastAct < done-r.timing.TRAS {
		b.lastAct = done - r.timing.TRAS
	}
}
