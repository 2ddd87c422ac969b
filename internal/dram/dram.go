// Package dram models DDR DRAM rank timing at bank-state granularity, plus
// the RowClone in-memory copy engine used by NetDIMM (paper Sec. 4.1,
// Fig. 8).
//
// The model tracks, per bank: the open row, the earliest instant the next
// command may issue, and the last activation time (to honour tRC = tRAS +
// tRP). The shared per-rank data bus serialises bursts. This is the same
// abstraction level as the controller model the paper built on (Hansson et
// al. [37]): accesses see row hits, row misses and row conflicts with the
// corresponding tCL / tRCD+tCL / tRP+tRCD+tCL latencies.
package dram

import (
	"fmt"
	"strings"

	"netdimm/internal/addrmap"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
)

// Timing holds the DDR timing parameters the model uses. All values are
// durations.
type Timing struct {
	Name string

	TCK  sim.Time // clock period
	TCL  sim.Time // CAS latency (read command to first data)
	TRCD sim.Time // activate to read/write
	TRP  sim.Time // precharge period
	TRAS sim.Time // activate to precharge
	TBL  sim.Time // burst transfer time for one 64B cacheline
	TWR  sim.Time // write recovery (last data to precharge)

	// BandwidthBytesPerSec is the peak channel bandwidth, used by
	// streaming-transfer helpers.
	BandwidthBytesPerSec float64
}

// TRC is the minimum activate-to-activate delay for one bank.
func (t *Timing) TRC() sim.Time { return t.TRAS + t.TRP }

// BurstTime returns the data-bus occupancy for a transfer of n bytes,
// rounded up to whole cachelines.
func (t *Timing) BurstTime(bytes int64) sim.Time {
	lines := (bytes + addrmap.CachelineSize - 1) / addrmap.CachelineSize
	if lines < 1 {
		lines = 1
	}
	return sim.Time(lines) * t.TBL
}

// StreamTime returns the time to stream n bytes at peak channel bandwidth,
// the right model for long pipelined transfers (DMA bursts).
func (t *Timing) StreamTime(bytes int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	return sim.Time(float64(bytes) / t.BandwidthBytesPerSec * float64(sim.Second))
}

// DDR4_2400 returns the DDR4-2400 parameter set used for the host channels
// in the paper's Table 1 (CL-RCD-RP 17, tRAS 32 cycles at 1200MHz I/O clock;
// 12.8GB/s nominal per channel, Sec. 3).
func DDR4_2400() Timing {
	tck := sim.Time(833) // ps (1.2GHz command clock)
	return Timing{
		Name:                 "DDR4-2400",
		TCK:                  tck,
		TCL:                  17 * tck,
		TRCD:                 17 * tck,
		TRP:                  17 * tck,
		TRAS:                 39 * tck,
		TBL:                  6 * tck, // 64B burst slot at the sustained 12.8GB/s the paper quotes (Sec. 3)
		TWR:                  18 * tck,
		BandwidthBytesPerSec: 12.8e9,
	}
}

// DDR5_4800 returns a DDR5 parameter set for NetDIMM channels: the paper
// notes a DDR5 channel has roughly twice the DDR4 bandwidth (Sec. 5.2) with
// similar absolute core timing.
func DDR5_4800() Timing {
	tck := sim.Time(417) // ps (2.4GHz command clock)
	return Timing{
		Name:                 "DDR5-4800",
		TCK:                  tck,
		TCL:                  40 * tck,
		TRCD:                 39 * tck,
		TRP:                  39 * tck,
		TRAS:                 76 * tck,
		TBL:                  6 * tck, // 64B burst slot at 2x DDR4 sustained bandwidth (25.6GB/s)
		TWR:                  36 * tck,
		BandwidthBytesPerSec: 25.6e9,
	}
}

// ParseTiming resolves a DRAM name from a system configuration (Table 1's
// "DDR4-2400" string) to its timing set. Matching is case-insensitive and
// accepts the bare generation ("DDR5") as an alias for its only speed grade.
func ParseTiming(name string) (Timing, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "DDR4-2400", "DDR4":
		return DDR4_2400(), nil
	case "DDR5-4800", "DDR5":
		return DDR5_4800(), nil
	default:
		return Timing{}, fmt.Errorf("dram: unknown DRAM %q (known: DDR4-2400, DDR5-4800)", name)
	}
}

// AccessKind classifies how an access found its bank.
type AccessKind int

const (
	// RowHit: the target row was already open.
	RowHit AccessKind = iota
	// RowMiss: the bank was precharged; an activate was needed.
	RowMiss
	// RowConflict: another row was open; precharge + activate were needed.
	RowConflict
)

func (k AccessKind) String() string {
	switch k {
	case RowHit:
		return "hit"
	case RowMiss:
		return "miss"
	case RowConflict:
		return "conflict"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Stats accumulates access statistics for a rank.
type Stats struct {
	Reads, Writes                uint64
	Hits, Misses, Conflicts      uint64
	Activations                  uint64
	BusBusy                      sim.Time // total data-bus occupancy
	CloneFPM, ClonePSM, CloneGCM uint64
}

type bank struct {
	openRow int // global row index, -1 if precharged
	readyAt sim.Time
	lastAct sim.Time
}

// Bus models the channel data bus; ranks sharing a channel share one Bus,
// so their bursts serialise against each other.
type Bus struct {
	freeAt sim.Time
}

// Rank is one DRAM rank: 16 banks behind the channel data bus, decoded
// with the Fig. 9 address layout.
type Rank struct {
	timing Timing
	banks  [addrmap.BanksPerRank]bank
	bus    *Bus
	stats  Stats
	// occ, when attached via Observe, samples bank occupancy per access.
	occ *obs.Series
}

// NewRank returns a rank with all banks precharged and a private bus (use
// ShareBus to co-locate ranks on one channel).
func NewRank(t Timing) *Rank {
	r := &Rank{timing: t, bus: &Bus{}}
	for i := range r.banks {
		r.banks[i].openRow = -1
		r.banks[i].lastAct = -sim.MaxTime / 2
	}
	return r
}

// ShareBus places the rank on the given channel bus.
func (r *Rank) ShareBus(b *Bus) { r.bus = b }

// Observe attaches a bank-occupancy series: every access samples how many
// of the rank's banks are still busy (preparing or bursting) at the
// access's arrival instant. A nil series detaches the sampler.
func (r *Rank) Observe(s *obs.Series) { r.occ = s }

// Stats returns a copy of the accumulated statistics.
func (r *Rank) Stats() Stats { return r.stats }

// Timing returns the rank's timing parameters.
func (r *Rank) Timing() Timing { return r.timing }

// OpenRow reports the open row of a bank, or -1.
func (r *Rank) OpenRow(bankIdx int) int { return r.banks[bankIdx].openRow }

// Access performs one read or write of up to a row's worth of bytes at the
// rank-local address, starting no earlier than now. It returns the instant
// the data transfer completes and the access classification.
func (r *Rank) Access(now sim.Time, local int64, write bool, bytes int64) (done sim.Time, kind AccessKind) {
	_, bank, row := addrmap.BankRow(local)
	return r.AccessRow(now, bank, row, write, bytes)
}

// AccessRow is Access for an address already decoded to its bank and
// flat row (addrmap.BankRow).
func (r *Rank) AccessRow(now sim.Time, bankIdx, row int, write bool, bytes int64) (done sim.Time, kind AccessKind) {
	if r.occ != nil {
		var busy int64
		for i := range r.banks {
			if r.banks[i].readyAt > now {
				busy++
			}
		}
		r.occ.Sample(now, busy)
	}
	b := &r.banks[bankIdx]
	t := &r.timing

	start := now
	if b.readyAt > start {
		start = b.readyAt
	}

	switch {
	case b.openRow == row:
		kind = RowHit
		r.stats.Hits++
	case b.openRow == -1:
		kind = RowMiss
		r.stats.Misses++
		// Activate; honour tRC from the previous activation.
		actAt := start
		if min := b.lastAct + t.TRC(); actAt < min {
			actAt = min
		}
		b.lastAct = actAt
		r.stats.Activations++
		start = actAt + t.TRCD
	default:
		kind = RowConflict
		r.stats.Conflicts++
		// Precharge may not occur before tRAS after the activation.
		preAt := start
		if min := b.lastAct + t.TRAS; preAt < min {
			preAt = min
		}
		actAt := preAt + t.TRP
		if min := b.lastAct + t.TRC(); actAt < min {
			actAt = min
		}
		b.lastAct = actAt
		r.stats.Activations++
		start = actAt + t.TRCD
	}
	b.openRow = row

	// Column access: data appears tCL after the column command and the
	// burst occupies the shared data bus.
	dataAt := start + t.TCL
	if dataAt < r.bus.freeAt {
		dataAt = r.bus.freeAt
	}
	burst := t.BurstTime(bytes)
	done = dataAt + burst
	r.bus.freeAt = done
	r.stats.BusBusy += burst

	// Column-to-column spacing (tCCD) equals the burst time, so same-row
	// accesses pipeline at bus rate; write recovery (tWR) gates precharge,
	// not further column commands, and precharge timing is charged on the
	// conflict path via tRAS.
	if write {
		r.stats.Writes++
	} else {
		r.stats.Reads++
	}
	b.readyAt = start + t.TBL
	return done, kind
}

// AccessRun performs n accesses of bytes each to one bank and row, the
// k-th arriving at now+k*gap, exactly as n AccessRow calls would, and
// returns the last one's completion and the first one's kind. This is how
// a controller issuing one command per burst slot presents a run of lines
// in one row.
//
// The first access is AccessRow's; the other n-1 are row hits. While gap
// is at most TBL and the burst is at least TBL (a burst is whole
// cachelines), each hit starts one TBL after the previous, since it
// arrives no later than the bank is ready, and its data follows the
// previous burst on the bus, since that burst ends at least tCL+burst
// after the previous start. So the last completion is the first plus
// (n-1) bursts, and the bank's readyAt, the bus, Hits, Reads or Writes
// and BusBusy advance by n-1 steps in closed form. A wider gap, or an
// attached occupancy series, which samples every access, takes the n
// calls.
func (r *Rank) AccessRun(now, gap sim.Time, bankIdx, row int, write bool, bytes int64, n int) (done sim.Time, kind AccessKind) {
	done, kind = r.AccessRow(now, bankIdx, row, write, bytes)
	if n <= 1 {
		return done, kind
	}
	t := &r.timing
	if r.occ != nil || gap > t.TBL {
		for k := 1; k < n; k++ {
			done, _ = r.AccessRow(now+sim.Time(k)*gap, bankIdx, row, write, bytes)
		}
		return done, kind
	}
	hits := sim.Time(n - 1)
	burst := t.BurstTime(bytes)
	done += hits * burst
	r.bus.freeAt = done
	r.banks[bankIdx].readyAt += hits * t.TBL
	r.stats.Hits += uint64(n - 1)
	r.stats.BusBusy += hits * burst
	if write {
		r.stats.Writes += uint64(n - 1)
	} else {
		r.stats.Reads += uint64(n - 1)
	}
	return done, kind
}
