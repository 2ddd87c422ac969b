package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/stats"
)

// FaultCounters tallies injected faults and recovery actions for one sweep
// cell; it re-exports the internal stats type.
type FaultCounters = stats.FaultCounters

// FaultSweepResult is one (architecture, loss rate) cell of the fault
// sweep: one-way latency statistics over delivered packets plus the cell's
// fault and recovery counters.
type FaultSweepResult struct {
	Arch      string
	LossRate  float64
	Mean      time.Duration
	P50       time.Duration
	P99       time.Duration
	Delivered int
	Failed    int
	Counters  FaultCounters
}

var faultSweepHeader = []string{"arch", "loss_rate", "mean_ns", "p50_ns", "p99_ns",
	"delivered", "failed", "retransmits", "frames_dropped", "frames_corrupted", "mem_retries"}

// FaultSweepCSV renders fault-sweep rows as plot-ready CSV, one record per
// (architecture, loss rate) cell.
func FaultSweepCSV(rows []FaultSweepResult) string {
	return encodeCSV(faultSweepHeader, rows, func(r FaultSweepResult) []string {
		return []string{r.Arch, fmt.Sprintf("%g", r.LossRate), ns(r.Mean), ns(r.P50), ns(r.P99),
			fmt.Sprint(r.Delivered), fmt.Sprint(r.Failed),
			fmt.Sprint(r.Counters.Retransmits), fmt.Sprint(r.Counters.FramesDropped),
			fmt.Sprint(r.Counters.FramesCorrupted), fmt.Sprint(r.Counters.MemRetries)}
	})
}

// RunFaultSweepWithConfig measures one-way latency degradation under
// injected frame loss for dNIC, iNIC and NetDIMM on the system described
// by cfg. rates are the injected per-traversal loss probabilities (nil
// uses a representative sweep from lossless to 20%); packets is the
// delivery count per cell (0 = 200). Only the drop probability is swept;
// every other fault knob — corruption, port drops, NVDIMM-P RDY loss, the
// retry/backoff policy — comes from cfg.Fault, so a lossy scenario shapes
// the whole sweep. A configuration that cannot make progress (for example
// 100% loss with an unlimited retry budget) is terminated by the per-cell
// event-budget watchdog and reported as an error rather than hanging. It
// is RunFaultSweepObserved without the tails and the observation.
func RunFaultSweepWithConfig(cfg Config, rates []float64, packets int, seed uint64, parallelism int) ([]FaultSweepResult, error) {
	rows, _, _, err := RunFaultSweepObserved(cfg, rates, packets, seed, parallelism)
	return rows, err
}
