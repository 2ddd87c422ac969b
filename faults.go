package netdimm

import (
	"fmt"

	"netdimm/internal/experiments"
	"netdimm/internal/stats"
)

// FaultCounters tallies injected faults and recovery actions for one sweep
// cell; it re-exports the internal stats type.
type FaultCounters = stats.FaultCounters

// FaultSweepResult is one (architecture, loss rate) cell of the fault
// sweep: one-way latency statistics over delivered packets plus the cell's
// fault and recovery counters.
type FaultSweepResult = experiments.FaultRow

// FaultTailResult is one architecture's latency tail over every loss rate
// of a fault sweep, merged from the per-cell sample sets.
type FaultTailResult = experiments.FaultTail

var faultSweepHeader = []string{"arch", "loss_rate", "mean_ns", "p50_ns", "p99_ns",
	"delivered", "failed", "retransmits", "frames_dropped", "frames_corrupted", "mem_retries"}

// FaultSweepCSV renders fault-sweep rows as plot-ready CSV, one record per
// (architecture, loss rate) cell.
func FaultSweepCSV(rows []FaultSweepResult) string {
	return encodeCSV(faultSweepHeader, rows, func(r FaultSweepResult) []string {
		return []string{r.Arch, fmt.Sprintf("%g", r.LossRate),
			ns(r.Mean.Duration()), ns(r.P50.Duration()), ns(r.P99.Duration()),
			fmt.Sprint(r.Delivered), fmt.Sprint(r.Failed),
			fmt.Sprint(r.Counters.Retransmits), fmt.Sprint(r.Counters.FramesDropped),
			fmt.Sprint(r.Counters.FramesCorrupted), fmt.Sprint(r.Counters.MemRetries)}
	})
}

// RunFaultSweepObserved measures one-way latency degradation under
// injected frame loss for dNIC, iNIC and NetDIMM on the system described
// by cfg. rates are the injected per-traversal loss probabilities (nil
// uses experiments.DefaultLossGrid, from lossless to 20%); packets is the
// delivery count per cell (0 = experiments.DefaultPackets, 1000). Only the
// drop probability is swept; every other fault knob — corruption, port
// drops, NVDIMM-P RDY loss, the retry/backoff policy — comes from
// cfg.Fault, so a lossy scenario shapes the whole sweep. A configuration that cannot make progress (for example
// 100% loss with an unlimited retry budget) is terminated by the per-cell
// event-budget watchdog and reported as an error rather than hanging.
//
// It also returns the per-architecture cross-rate latency tails merged
// from every cell's histogram, whatever cfg.Obs says. The observability
// plane is armed per cfg.Obs (retransmit/backoff and NVDIMM-P recovery
// spans, path outcome counters, fault tallies, engine probes); a zero
// cfg.Obs returns a nil Observation.
func RunFaultSweepObserved(cfg Config, rates []float64, packets int, seed uint64, parallelism int) (_ []FaultSweepResult, _ []FaultTailResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	rows, o, err := experiments.FaultSweepObserved(cfg, rates, packets, seed, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, nil, err
	}
	return rows, experiments.FaultTails(rows), newObservation(o), nil
}
