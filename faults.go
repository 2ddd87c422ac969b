package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/experiments"
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

// RunFaultSweep measures one-way latency degradation under injected frame
// loss for dNIC, iNIC and NetDIMM on the default configuration. rates are
// the injected per-traversal loss probabilities (nil uses a representative
// sweep from lossless to 20%); packets is the delivery count per cell
// (0 = 200).
func RunFaultSweep(rates []float64, packets int, seed uint64, parallelism int) ([]FaultSweepResult, error) {
	return RunFaultSweepWithConfig(DefaultConfig(), rates, packets, seed, parallelism)
}

// RunFaultSweepWithConfig is RunFaultSweep on the system described by cfg.
// Only the drop probability is swept; every other fault knob — corruption,
// port drops, NVDIMM-P RDY loss, the retry/backoff policy — comes from
// cfg.Fault, so a lossy scenario shapes the whole sweep. A configuration
// that cannot make progress (for example 100% loss with an unlimited retry
// budget) is terminated by the per-cell event-budget watchdog and reported
// as an error rather than hanging.
func RunFaultSweepWithConfig(cfg Config, rates []float64, packets int, seed uint64, parallelism int) (_ []FaultSweepResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		rates = []float64{0, 0.001, 0.01, 0.05, 0.1, 0.2}
	}
	fcfg := experiments.DefaultFaultSweepConfig()
	fcfg.Packets = packets
	fcfg.Seed = seed
	rows, err := experiments.FaultSweep(cfg.spec(), rates, fcfg, parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]FaultSweepResult, len(rows))
	for i, r := range rows {
		out[i] = FaultSweepResult{
			Arch:      r.Arch,
			LossRate:  r.LossRate,
			Mean:      toDuration(r.Mean),
			P50:       toDuration(r.P50),
			P99:       toDuration(r.P99),
			Delivered: r.Delivered,
			Failed:    r.Failed,
			Counters:  r.Counters,
		}
	}
	return out, nil
}
