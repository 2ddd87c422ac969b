// Package collective is the collective-communication workload plane: the
// many-to-many, synchronized-burst traffic of distributed-ML training that
// the paper's point-to-point and incast experiments never exercise. It
// implements the three canonical operations — Ring AllReduce (a
// reduce-scatter ring followed by an allgather ring), O(log N) binomial-tree
// Broadcast, and Reduce-Scatter (the ring's first phase alone) — as pure
// per-rank step schedules (Plan) plus an event-driven per-rank state
// machine (Exec) that executes a plan over any transport the caller
// provides. The experiments package binds the transport to fabric.Topology
// with per-rank TX/RX driver queues; tests bind it to an instant in-memory
// transport to check the data plane against a sequential reference.
package collective

import (
	"fmt"

	"netdimm/internal/nic"
)

// Op identifies one collective operation.
type Op int

const (
	// AllReduce leaves every rank holding the element-wise sum of all
	// ranks' vectors (ring algorithm: reduce-scatter then allgather,
	// 2(N-1) steps, each rank moving 2(N-1)/N of the payload).
	AllReduce Op = iota
	// Broadcast copies rank 0's vector to every rank (binomial tree,
	// ceil(log2 N) rounds).
	Broadcast
	// ReduceScatter leaves rank r holding the fully-reduced chunk
	// (r+1) mod N (the ring's first phase alone, N-1 steps).
	ReduceScatter
)

// Ops lists the operations in presentation order.
var Ops = []Op{AllReduce, Broadcast, ReduceScatter}

func (o Op) String() string {
	switch o {
	case AllReduce:
		return "allreduce"
	case Broadcast:
		return "broadcast"
	case ReduceScatter:
		return "reducescatter"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ParseOp resolves an operation name; the empty string selects AllReduce.
func ParseOp(s string) (Op, error) {
	switch s {
	case "", "allreduce":
		return AllReduce, nil
	case "broadcast":
		return Broadcast, nil
	case "reducescatter":
		return ReduceScatter, nil
	default:
		return 0, fmt.Errorf("collective: unknown op %q (want allreduce, broadcast or reducescatter)", s)
	}
}

// DefaultPayloadBytes is the per-rank payload when the spec leaves it
// unset: 64KiB, a mid-sized gradient bucket.
const DefaultPayloadBytes = 64 << 10

// MaxRanks bounds the rank count a specification may pin; the sweep's own
// grid tops out at 128, but scenarios may push further.
const MaxRanks = 1024

// Spec is the collective block of a system specification: which operation
// the collective sweep runs, over how many ranks, moving how much data in
// what chunks. The zero value is valid and means "use the sweep defaults"
// (all three ops, the 4–128 rank grid, 64KiB payload, MTU-sized chunks).
// It is JSON-addressable from scenario files like the fault block.
type Spec struct {
	// Op pins the operation axis to one op: "allreduce", "broadcast" or
	// "reducescatter". "" sweeps all three.
	Op string
	// Ranks pins the rank-count axis to one value (each rank is one host
	// of the fabric). 0 sweeps the default 4–128 grid.
	Ranks int
	// PayloadBytes is each rank's vector size in bytes. 0 means 64KiB.
	PayloadBytes int
	// ChunkBytes caps one wire frame's payload; a step's message is
	// fragmented into ceil(bytes/ChunkBytes) frames. 0 means the MTU.
	ChunkBytes int
}

// Validate checks the block; the zero value always passes.
func (s Spec) Validate() error {
	if _, err := ParseOp(s.Op); err != nil {
		return err
	}
	if s.Ranks != 0 && (s.Ranks < 2 || s.Ranks > MaxRanks) {
		return fmt.Errorf("collective: Ranks must be 0 (sweep the default grid) or between 2 and %d, got %d", MaxRanks, s.Ranks)
	}
	if s.PayloadBytes < 0 {
		return fmt.Errorf("collective: PayloadBytes must not be negative, got %d", s.PayloadBytes)
	}
	if s.ChunkBytes < 0 || s.ChunkBytes > nic.MTU {
		return fmt.Errorf("collective: ChunkBytes must be between 0 (meaning the MTU) and the MTU, %d, got %d: no receive buffer holds a larger frame", nic.MTU, s.ChunkBytes)
	}
	return nil
}
