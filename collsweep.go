package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/experiments"
)

// CollSweepResult is one (architecture, operation, rank count) cell of the
// collective-communication sweep: the makespan of one Ring AllReduce, tree
// Broadcast or Reduce-Scatter over the fabric, with per-step skew and the
// cell's wire tallies.
type CollSweepResult struct {
	Arch string
	// Op is the collective operation: "allreduce", "broadcast" or
	// "reducescatter".
	Op string
	// Ranks is the number of participating hosts.
	Ranks int
	// PayloadBytes is each rank's full vector size in bytes.
	PayloadBytes int
	// Steps is the schedule depth (2(N-1) for the ring allreduce, N-1 for
	// the reduce-scatter ring, ceil(log2 N) rounds for the tree broadcast).
	Steps int
	// Completion is the time the slowest rank finished its schedule.
	Completion time.Duration
	// StepSkew is the worst finish-time spread across ranks at any single
	// schedule step — the synchronization cost the collective pays per step.
	StepSkew time.Duration
	// BytesOnWire counts delivered frame bytes including Ethernet overhead.
	BytesOnWire int64
	// Frames and Delivered count injected and delivered fabric frames;
	// Dropped counts tail drops (any drop stalls the dependency graph and
	// turns into a diagnostic error, so successful rows report 0); Marked
	// counts freshly ECN-marked frames.
	Frames    int
	Delivered int
	Dropped   int
	Marked    int
	// LinkUtilization is delivered wire occupancy averaged over every
	// rank's link and the collective's makespan, in [0,1].
	LinkUtilization float64
}

var collSweepHeader = []string{"arch", "op", "ranks", "payload_bytes", "steps",
	"completion_ns", "step_skew_ns", "bytes_on_wire", "frames", "delivered",
	"dropped", "marked", "link_util"}

// CollSweepCSV renders collective-sweep rows as plot-ready CSV, one record
// per (architecture, operation, rank count) cell.
func CollSweepCSV(rows []CollSweepResult) string {
	return encodeCSV(collSweepHeader, rows, func(r CollSweepResult) []string {
		return []string{r.Arch, r.Op, fmt.Sprint(r.Ranks),
			fmt.Sprint(r.PayloadBytes), fmt.Sprint(r.Steps),
			ns(r.Completion), ns(r.StepSkew),
			fmt.Sprint(r.BytesOnWire), fmt.Sprint(r.Frames), fmt.Sprint(r.Delivered),
			fmt.Sprint(r.Dropped), fmt.Sprint(r.Marked), fixed4(r.LinkUtilization)}
	})
}

// RunCollSweepWithConfig runs the collective sweep on the system described
// by cfg: for each architecture, operation and rank count, the ranks run the
// collective as an event-driven dependency graph over the fabric and the
// makespan, per-step skew and wire tallies are measured. Every cell also
// verifies the result vectors against a sequential reference reduction.
// ranks is the rank-count axis (nil = {4, 8, 16, 32, 64, 128}), ops selects
// operations (nil = all three). The collective shape — operation, rank
// count, payload and chunk bytes — comes from cfg.Collective when the axis
// arguments are nil/zero; port buffering comes from cfg.Load. A cell that
// drops a frame deadlocks its dependency graph and is reported as a
// diagnostic error naming the stuck rank.
func RunCollSweepWithConfig(cfg Config, ranks []int, ops []string, seed uint64, parallelism int) (_ []CollSweepResult, err error) {
	rows, _, err := RunCollSweepObserved(cfg, ranks, ops, seed, parallelism)
	return rows, err
}

// RunCollSweepObserved is RunCollSweepWithConfig with the observability
// plane armed per cfg.Obs: with metrics on, each cell publishes delivery
// and mark counters, completion/skew/utilization gauges and engine probes;
// with tracing on, each cell carries one track per rank with a span per
// schedule step. A zero cfg.Obs returns a nil Observation and output
// identical to RunCollSweepWithConfig.
func RunCollSweepObserved(cfg Config, ranks []int, ops []string, seed uint64, parallelism int) (_ []CollSweepResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	ccfg := experiments.DefaultCollSweepConfig()
	ccfg.Seed = seed
	rows, o, err := experiments.CollSweepObserved(cfg.spec(), ranks, ops, ccfg, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, err
	}
	out := make([]CollSweepResult, len(rows))
	for i, r := range rows {
		out[i] = CollSweepResult{
			Arch:            r.Arch,
			Op:              r.Op,
			Ranks:           r.Ranks,
			PayloadBytes:    r.PayloadBytes,
			Steps:           r.Steps,
			Completion:      toDuration(r.Completion),
			StepSkew:        toDuration(r.StepSkew),
			BytesOnWire:     r.BytesOnWire,
			Frames:          r.Frames,
			Delivered:       r.Delivered,
			Dropped:         r.Dropped,
			Marked:          r.Marked,
			LinkUtilization: r.LinkUtilization,
		}
	}
	return out, newObservation(o), nil
}
