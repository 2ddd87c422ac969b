package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/experiments"
)

// LoadSweepResult is one (architecture, offered load) cell of the
// rack-scale load sweep: end-to-end latency statistics over delivered
// packets, plus the cell's congestion tallies.
type LoadSweepResult struct {
	Arch string
	// OfferedLoad is the injected fraction of the receiver's line rate,
	// aggregated over every sender host.
	OfferedLoad float64
	Mean        time.Duration
	P50         time.Duration
	P99         time.Duration
	P999        time.Duration
	// Delivered counts packets that completed end to end; Dropped counts
	// frames tail-dropped by a full uplink or egress buffer.
	Delivered int
	Dropped   int
	// EgressMaxDepth and EgressQueueDelay describe the shared switch
	// egress port toward the receiver (the wire-side incast bottleneck).
	EgressMaxDepth   int
	EgressQueueDelay time.Duration
	// RxMaxDepth is the high-water mark of the receiver driver's queue
	// (the architecture-dependent bottleneck).
	RxMaxDepth int
	// LinkUtilization is delivered wire occupancy over the cell's
	// makespan, in [0,1].
	LinkUtilization float64
}

var loadSweepHeader = []string{"arch", "offered_load", "mean_ns", "p50_ns", "p99_ns", "p999_ns",
	"delivered", "dropped", "egress_max_depth", "egress_queue_delay_ns", "rx_max_depth", "link_util"}

// LoadSweepCSV renders load-sweep rows as plot-ready CSV, one record per
// (architecture, offered load) cell.
func LoadSweepCSV(rows []LoadSweepResult) string {
	return encodeCSV(loadSweepHeader, rows, func(r LoadSweepResult) []string {
		return []string{r.Arch, fmt.Sprintf("%g", r.OfferedLoad),
			ns(r.Mean), ns(r.P50), ns(r.P99), ns(r.P999),
			fmt.Sprint(r.Delivered), fmt.Sprint(r.Dropped),
			fmt.Sprint(r.EgressMaxDepth), ns(r.EgressQueueDelay),
			fmt.Sprint(r.RxMaxDepth), fixed4(r.LinkUtilization)}
	})
}

// LoadKneeResult is one architecture's detected saturation point: the
// highest swept load whose p99 stayed within the configured knee factor of
// the lowest swept load's p99. Saturated is false when the grid never
// reached the knee; such a curve (including a single-load grid, which
// cannot bracket a knee) reports the explicit no-knee result Knee 0.
type LoadKneeResult struct {
	Arch      string
	Knee      float64
	Saturated bool
}

// RunLoadSweepWithConfig runs the rack-scale open-loop load sweep on the
// system described by cfg: for each architecture (dNIC, iNIC, NetDIMM) and
// each offered load, eight sender hosts inject cluster-distributed traffic
// that fans in to one receiver through an output-queued switch, and the
// end-to-end latency distribution (mean/p50/p99/p999) is measured over every
// delivered packet. loads are fractions of the line rate (nil uses a default
// grid bracketing every architecture's knee); packets is the total arrival
// count per cell (0 = experiments.DefaultPackets, 1000). The traffic shape
// — sender host count (incast), cluster distribution, Poisson or fixed
// arrivals, egress buffering, knee factor — comes from cfg.Load; a zero
// Load block selects the sweep defaults. A configuration that cannot drain
// (for example a pathological buffer setting) is terminated by the
// per-cell event-budget watchdog and reported as an error rather than
// hanging.
func RunLoadSweepWithConfig(cfg Config, loads []float64, packets int, seed uint64, parallelism int) (_ []LoadSweepResult, _ []LoadKneeResult, err error) {
	rows, knees, _, err := RunLoadSweepObserved(cfg, loads, packets, seed, parallelism)
	return rows, knees, err
}

// RunLoadSweepObserved is RunLoadSweepWithConfig with the observability
// plane armed per cfg.Obs: with metrics on, each (arch, load) cell
// publishes its receiver queue-depth series, egress depth, delivery/drop
// counters, link utilisation and engine probes. A zero cfg.Obs returns a
// nil Observation and output identical to RunLoadSweepWithConfig.
func RunLoadSweepObserved(cfg Config, loads []float64, packets int, seed uint64, parallelism int) (_ []LoadSweepResult, _ []LoadKneeResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	rows, knees, o, err := experiments.LoadSweepObserved(cfg, loads, packets, seed, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, nil, err
	}
	out := make([]LoadSweepResult, len(rows))
	for i, r := range rows {
		out[i] = LoadSweepResult{
			Arch:             r.Arch,
			OfferedLoad:      r.Load,
			Mean:             r.Mean.Duration(),
			P50:              r.P50.Duration(),
			P99:              r.P99.Duration(),
			P999:             r.P999.Duration(),
			Delivered:        r.Delivered,
			Dropped:          r.Dropped,
			EgressMaxDepth:   r.EgressMaxDepth,
			EgressQueueDelay: r.EgressQueueDelay.Duration(),
			RxMaxDepth:       r.RxMaxDepth,
			LinkUtilization:  r.LinkUtilization,
		}
	}
	kout := make([]LoadKneeResult, len(knees))
	for i, k := range knees {
		kout[i] = LoadKneeResult{Arch: k.Arch, Knee: k.Knee, Saturated: k.Saturated}
	}
	return out, kout, newObservation(o), nil
}
