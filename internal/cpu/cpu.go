// Package cpu is a first-order out-of-order core timing model built from
// the paper's Table 1 parameters (8 cores at 3.4GHz, 3-way superscalar,
// 40-entry ROB, 32KB/64KB/2MB caches at 1/2/12 cycles). The paper runs its
// drivers on gem5's O3 core; this model is the analytical substitute: it
// estimates the execution time of the driver code blocks whose costs the
// driver package uses, tying Table 1's core configuration into the
// simulation instead of leaving the software constants free-floating.
package cpu

import (
	"fmt"
	"math"

	"netdimm/internal/sim"
)

// Params describes the core.
type Params struct {
	FreqGHz    float64
	IssueWidth int
	ROBEntries int
	// L1DLat and L2Lat are load-to-use latencies in cycles.
	L1DLat int
	L2Lat  int
	// MemLat is the DRAM access latency seen by an L2 miss.
	MemLat sim.Time
	// MLP is the sustainable memory-level parallelism (MSHR-bound
	// outstanding misses).
	MLP int
}

// TableOne returns the paper's Table 1 core.
func TableOne() Params {
	return Params{
		FreqGHz:    3.4,
		IssueWidth: 3,
		ROBEntries: 40,
		L1DLat:     2,
		L2Lat:      12,
		MemLat:     70 * sim.Nanosecond,
		MLP:        6,
	}
}

// Cycle returns the clock period.
func (p Params) Cycle() sim.Time {
	return sim.Time(math.Round(1000.0 / p.FreqGHz)) // ps
}

// Block is one straight-line-ish software code block: a driver routine or
// a phase of one (SKB allocation, descriptor write, copy loop, ...).
type Block struct {
	Name string
	// Instrs is the dynamic instruction count per execution.
	Instrs int
	// DepFrac is the fraction of instructions on the critical dependency
	// chain (1.0 = fully serial, 1/IssueWidth = perfectly parallel).
	DepFrac float64
	// L1DMisses and L2Misses count data-cache misses per execution.
	L1DMisses int
	L2Misses  int
	// Bytes, if non-zero, adds a streaming component: the block moves this
	// many bytes through the cache hierarchy (copy loops).
	Bytes int
}

// Estimate returns the block's execution time: the issue-bound or
// dependency-bound instruction time, plus cache-miss stalls with MLP
// overlap, plus the streaming time of bulk data movement.
func (p Params) Estimate(b Block) sim.Time {
	if b.Instrs < 0 || b.DepFrac < 0 || b.DepFrac > 1 {
		panic(fmt.Sprintf("cpu: invalid block %+v", b))
	}
	issueCycles := float64(b.Instrs) / float64(p.IssueWidth)
	depCycles := float64(b.Instrs) * b.DepFrac
	cycles := math.Max(issueCycles, depCycles)
	cycles += float64(b.L1DMisses * p.L2Lat)

	t := sim.Time(math.Round(cycles)) * p.Cycle()
	if b.L2Misses > 0 {
		mlp := p.MLP
		if mlp < 1 {
			mlp = 1
		}
		rounds := (b.L2Misses + mlp - 1) / mlp
		t += sim.Time(rounds) * p.MemLat
	}
	if b.Bytes > 0 {
		// A well-tuned copy loop moves ~16B per cycle until it becomes
		// miss-bound; the misses above account for the miss-bound part.
		t += sim.Time(math.Round(float64(b.Bytes)/16.0)) * p.Cycle()
	}
	return t
}

// DriverBlocks is the catalog of network-driver code blocks, with
// instruction counts representative of a bare-metal polled driver (the
// paper's Sec. 5.1 setup). These feed driver.CostsFromParams.
var DriverBlocks = map[string]Block{
	"skb_alloc": {
		Name: "skb_alloc", Instrs: 180, DepFrac: 0.35, L1DMisses: 3, L2Misses: 1,
	},
	"poll_check": {
		// Load-acquire of the status word (recently DMA-written: misses
		// L1), compare, timer bookkeeping.
		Name: "poll_check", Instrs: 40, DepFrac: 0.6, L1DMisses: 3,
	},
	"desc_write": {
		// Compose the descriptor, store, and the ordering fence.
		Name: "desc_write", Instrs: 50, DepFrac: 0.5, L1DMisses: 2,
	},
	"alloccache_lookup": {
		Name: "alloccache_lookup", Instrs: 40, DepFrac: 0.5, L1DMisses: 2,
	},
	"alloc_pages_slow": {
		Name: "alloc_pages_slow", Instrs: 600, DepFrac: 0.4, L1DMisses: 8, L2Misses: 4,
	},
	"zcpy_pin": {
		Name: "zcpy_pin", Instrs: 150, DepFrac: 0.45, L1DMisses: 2, L2Misses: 1,
	},
	"copy_fixed": {
		// Loop setup, skb bookkeeping, and the dependent cold misses on
		// the first source and destination lines before the pipeline fills.
		Name: "copy_fixed", Instrs: 120, DepFrac: 0.5, L1DMisses: 4, L2Misses: 12,
	},
	"flush_base": {
		// clwb loop setup plus the trailing sfence.
		Name: "flush_base", Instrs: 60, DepFrac: 0.7, L1DMisses: 1,
	},
}

// SoftwareCosts is the derived cost set, mirroring the driver package's
// constants.
type SoftwareCosts struct {
	SKBAlloc         sim.Time
	PollCheck        sim.Time
	DescWrite        sim.Time
	AllocCacheLookup sim.Time
	SlowAllocPages   sim.Time
	ZcpyPin          sim.Time
	CopyFixed        sim.Time
	FlushBase        sim.Time
	// CopyBytesPerSec is the steady-state cold-destination copy rate: one
	// cacheline per memory round trip at the core's MLP.
	CopyBytesPerSec float64
	// FlushPerLine is the cost of one clwb in a flush loop.
	FlushPerLine sim.Time
}

// Derive computes the software cost set from the core parameters.
func Derive(p Params) SoftwareCosts {
	est := func(name string) sim.Time { return p.Estimate(DriverBlocks[name]) }
	mlp := p.MLP
	if mlp < 1 {
		mlp = 1
	}
	// A cold copy sustains MLP cachelines per memory latency.
	copyBW := 64.0 * float64(mlp) / p.MemLat.Seconds()
	return SoftwareCosts{
		SKBAlloc:         est("skb_alloc"),
		PollCheck:        est("poll_check"),
		DescWrite:        est("desc_write"),
		AllocCacheLookup: est("alloccache_lookup"),
		SlowAllocPages:   est("alloc_pages_slow"),
		ZcpyPin:          est("zcpy_pin"),
		CopyFixed:        est("copy_fixed"),
		FlushBase:        est("flush_base"),
		CopyBytesPerSec:  copyBW,
		// clwb retires every few cycles when pipelined.
		FlushPerLine: 16 * p.Cycle(),
	}
}
