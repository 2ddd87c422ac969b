// Package fabric is the topology plane: it lifts the network out of the
// experiment layer into one reusable structure — hosts attached through
// NIC uplink ports to a leaf/spine clos of event-driven SwitchNodes, with
// an output queue at every hop, deterministic seeded ECMP flow hashing
// over the spine layer, and an ECN congestion signal (threshold marking at
// every switch queue plus a per-sender backoff pacer).
//
// The single-switch incast the load sweep started from is the degenerate
// configuration: one leaf, no spines. Everything larger — cross-rack
// mixes, collectives, new architectures — builds the same Topology with a
// bigger Spec instead of re-hardcoding switches per experiment.
//
// Determinism: the only randomness is the ECMP flow hash, a pure function
// of (src, dst, seed) — no rng stream is consumed per packet — so results
// are byte-identical at any parallelism.
package fabric

import (
	"fmt"

	"netdimm/internal/sim"
)

// DefaultECNThreshold is the marking threshold (in frames) the racksweep
// experiment arms when a specification enables ECN without choosing one.
// It is a small fraction of the default 64-frame port buffer, in the
// DCTCP spirit of marking well before tail drop.
const DefaultECNThreshold = 8

// DefaultECNBackoff is the sender stall applied per echoed mark when the
// specification leaves ECNBackoffNs zero: roughly one MTU serialisation at
// 10G — long enough to drain a marked queue, short enough not to idle the
// sender.
const DefaultECNBackoff = 1200 * sim.Nanosecond

// Spec is the fabric block of a system specification: the clos shape and
// the ECN congestion-signal knobs. The zero value is valid and selects the
// degenerate single-switch fabric (one leaf, no spines, ECN off) — the
// exact network the load sweep always built, so a zero block changes no
// pinned output. It is JSON-addressable from scenario files like the
// fault and load blocks.
type Spec struct {
	// Leaves is the number of leaf (rack) switches; hosts are assigned to
	// leaves in contiguous blocks. 0 means 1.
	Leaves int
	// Spines is the number of spine switches interconnecting the leaves.
	// 0 picks the default: no spines for a single leaf, 2 (the minimum
	// that gives ECMP a choice) for a multi-leaf fabric.
	Spines int
	// ECNThreshold arms ECN marking on every switch port: a frame enqueued
	// at depth >= ECNThreshold leaves with its ECN bit set. 0 disables
	// marking.
	ECNThreshold int
	// ECNBackoffNs is the sender-side stall per echoed mark, in
	// nanoseconds. 0 with marking enabled selects DefaultECNBackoff.
	ECNBackoffNs int
	// Seed perturbs the ECMP flow hash, re-rolling which spine each
	// (src, dst) flow pins to without touching any other stream.
	Seed uint64
}

// Validate checks the block; the zero value always passes.
func (s Spec) Validate() error {
	if s.Leaves < 0 {
		return fmt.Errorf("fabric: Leaves must not be negative, got %d", s.Leaves)
	}
	if s.Spines < 0 {
		return fmt.Errorf("fabric: Spines must not be negative, got %d", s.Spines)
	}
	if s.ECNThreshold < 0 {
		return fmt.Errorf("fabric: ECNThreshold must not be negative, got %d", s.ECNThreshold)
	}
	if s.ECNBackoffNs < 0 {
		return fmt.Errorf("fabric: ECNBackoffNs must not be negative, got %d", s.ECNBackoffNs)
	}
	return nil
}

// Resolved applies the defaults: at least one leaf, a spine pair for any
// multi-leaf fabric, and the default backoff once marking is enabled.
func (s Spec) Resolved() Spec {
	if s.Leaves < 1 {
		s.Leaves = 1
	}
	if s.Leaves > 1 && s.Spines < 1 {
		s.Spines = 2
	}
	if s.ECNThreshold > 0 && s.ECNBackoffNs == 0 {
		s.ECNBackoffNs = int(DefaultECNBackoff / sim.Nanosecond)
	}
	return s
}

// ECNBackoff returns the resolved sender stall per mark.
func (s Spec) ECNBackoff() sim.Time {
	return sim.Time(s.Resolved().ECNBackoffNs) * sim.Nanosecond
}

// LeafOf returns the leaf (rack) of host h under the block assignment the
// Topology uses: hosts split into ceil(hosts/leaves) contiguous blocks.
// The workload plane's cross-rack destination sampler uses the same
// function, so "intra-rack" there is "same leaf" here by construction.
func LeafOf(h, hosts, leaves int) int {
	if leaves <= 1 {
		return 0
	}
	per := (hosts + leaves - 1) / leaves
	return h / per
}

// RackBounds returns the half-open host range [lo, hi) of host h's rack
// under the same block assignment as LeafOf.
func RackBounds(h, hosts, leaves int) (lo, hi int) {
	if leaves <= 1 {
		return 0, hosts
	}
	per := (hosts + leaves - 1) / leaves
	lo = (h / per) * per
	hi = lo + per
	if hi > hosts {
		hi = hosts
	}
	return lo, hi
}

// FlowHash is the deterministic ECMP hash: a splitmix64 finalizer over the
// (src, dst) pair perturbed by the seed. It is stable across runs and
// architectures — the same flow always pins the same spine.
func FlowHash(src, dst, seed uint64) uint64 {
	h := src<<32 ^ dst ^ seed*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Pacer is the sender-side ECN response: each echoed mark requests one
// backoff stall on the sender's TX path, with at most one stall
// outstanding (a burst of marks inside one stall collapses into it, the
// way a DCTCP window cut absorbs a whole marked RTT). Stall is wired by
// the experiment to occupy the sender's serial TX stage for d and then
// call done; a nil Pacer or nil Stall ignores marks.
type Pacer struct {
	// Backoff is the stall length per mark.
	Backoff sim.Time
	// Stall occupies the sender for d, then must call done exactly once.
	Stall func(d sim.Time, done func())

	// Marks counts echoed marks seen, including collapsed ones.
	Marks uint64
	// Stalls counts backoff stalls actually issued.
	Stalls uint64

	pending bool
	clearFn func() // p.clear, bound on the first stall
}

// OnMark reacts to one echoed congestion mark. It allocates nothing once
// the first stall has bound the stall's completion.
func (p *Pacer) OnMark() {
	if p == nil || p.Stall == nil || p.Backoff <= 0 {
		return
	}
	p.Marks++
	if p.pending {
		return
	}
	p.pending = true
	p.Stalls++
	if p.clearFn == nil {
		p.clearFn = p.clear
	}
	p.Stall(p.Backoff, p.clearFn)
}

// clear ends the outstanding stall.
func (p *Pacer) clear() { p.pending = false }
