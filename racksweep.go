package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/experiments"
)

// RackSweepResult is one (architecture, racks, ECN, offered load) cell of
// the rack-count sweep: end-to-end latency statistics over delivered
// packets, plus the cell's fabric tallies.
type RackSweepResult struct {
	Arch string
	// Racks is the leaf count of the cell's leaf/spine clos.
	Racks int
	// ECN reports whether the cell ran with marking and sender backoff.
	ECN bool
	// OfferedLoad is each host's injected fraction of its own line rate.
	OfferedLoad float64
	Mean        time.Duration
	P50         time.Duration
	P99         time.Duration
	P999        time.Duration
	// Delivered counts packets that completed end to end; Dropped counts
	// frames tail-dropped at any hop (uplink, leaf or spine queue).
	Delivered int
	Dropped   int
	// Marked counts frames freshly ECN-marked at any fabric queue.
	Marked int
	// CrossRack counts packets whose destination lay in another rack (and
	// therefore crossed the spine layer).
	CrossRack int
	// LeafMaxDepth and SpineMaxDepth are the deepest output queues seen at
	// each fabric layer.
	LeafMaxDepth  int
	SpineMaxDepth int
	// RxMaxDepth is the deepest receiver driver queue across all hosts.
	RxMaxDepth int
	// LinkUtilization is delivered wire occupancy averaged over all host
	// links and the cell's makespan, in [0,1].
	LinkUtilization float64
}

var rackSweepHeader = []string{"arch", "racks", "ecn", "offered_load", "mean_ns", "p50_ns", "p99_ns", "p999_ns",
	"delivered", "dropped", "marked", "cross_rack",
	"leaf_max_depth", "spine_max_depth", "rx_max_depth", "link_util"}

// RackSweepCSV renders rack-sweep rows as plot-ready CSV, one record per
// (architecture, racks, ECN, offered load) cell; the ecn column is "on" or
// "off".
func RackSweepCSV(rows []RackSweepResult) string {
	return encodeCSV(rackSweepHeader, rows, func(r RackSweepResult) []string {
		ecn := "off"
		if r.ECN {
			ecn = "on"
		}
		return []string{r.Arch, fmt.Sprint(r.Racks), ecn, fmt.Sprintf("%g", r.OfferedLoad),
			ns(r.Mean), ns(r.P50), ns(r.P99), ns(r.P999),
			fmt.Sprint(r.Delivered), fmt.Sprint(r.Dropped),
			fmt.Sprint(r.Marked), fmt.Sprint(r.CrossRack),
			fmt.Sprint(r.LeafMaxDepth), fmt.Sprint(r.SpineMaxDepth),
			fmt.Sprint(r.RxMaxDepth), fixed4(r.LinkUtilization)}
	})
}

// RackKneeResult is one (arch, racks, ECN) curve's detected saturation
// point: the highest swept load whose p99 stayed within the configured
// knee factor of the lowest swept load's p99. Saturated is false when the
// grid never reached the knee; such a curve (including a single-load
// grid, which cannot bracket a knee) reports the explicit no-knee result
// Knee 0.
type RackKneeResult struct {
	Arch      string
	Racks     int
	ECN       bool
	Knee      float64
	Saturated bool
}

// RunRackSweepWithConfig runs the rack-count sweep on the system described
// by cfg: for each architecture, rack count and ECN setting, 256 hosts
// spread over a leaf/spine clos exchange cluster-mix traffic (destinations
// follow the published flow-locality shares, so most database traffic
// crosses the spine layer) and the end-to-end latency distribution is
// measured over every delivered packet. racks is the leaf-count axis (nil =
// {2, 4, 8}), loads are per-host fractions of the line rate (nil = a
// geometric grid bracketing each architecture's knee), packets is the total
// arrival count per cell (0 = 4000). The traffic shape — host count, cluster
// distribution, arrival process, port buffering, knee factor — comes from
// cfg.Load (a zero Hosts means 256); the clos shape and ECN tuning come from
// cfg.Fabric (a pinned Leaves replaces the racks axis, a set ECNThreshold
// tunes the sweep's ECN-on cells). A configuration that cannot drain is
// terminated by the per-cell event-budget watchdog and reported as an error.
func RunRackSweepWithConfig(cfg Config, racks []int, loads []float64, packets int, seed uint64, parallelism int) (_ []RackSweepResult, _ []RackKneeResult, err error) {
	rows, knees, _, err := RunRackSweepObserved(cfg, racks, loads, packets, seed, parallelism)
	return rows, knees, err
}

// RunRackSweepObserved is RunRackSweepWithConfig with the observability
// plane armed per cfg.Obs: with metrics on, each cell publishes delivery,
// drop and mark counters, fabric depth gauges and engine probes. A zero
// cfg.Obs returns a nil Observation and output identical to
// RunRackSweepWithConfig.
func RunRackSweepObserved(cfg Config, racks []int, loads []float64, packets int, seed uint64, parallelism int) (_ []RackSweepResult, _ []RackKneeResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	rows, knees, o, err := experiments.RackSweepObserved(cfg, racks, loads, packets, seed, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, nil, err
	}
	out := make([]RackSweepResult, len(rows))
	for i, r := range rows {
		out[i] = RackSweepResult{
			Arch:            r.Arch,
			Racks:           r.Racks,
			ECN:             r.ECN,
			OfferedLoad:     r.Load,
			Mean:            r.Mean.Duration(),
			P50:             r.P50.Duration(),
			P99:             r.P99.Duration(),
			P999:            r.P999.Duration(),
			Delivered:       r.Delivered,
			Dropped:         r.Dropped,
			Marked:          r.Marked,
			CrossRack:       r.CrossRack,
			LeafMaxDepth:    r.LeafMaxDepth,
			SpineMaxDepth:   r.SpineMaxDepth,
			RxMaxDepth:      r.RxMaxDepth,
			LinkUtilization: r.LinkUtilization,
		}
	}
	kout := make([]RackKneeResult, len(knees))
	for i, k := range knees {
		kout[i] = RackKneeResult{Arch: k.Arch, Racks: k.Racks, ECN: k.ECN, Knee: k.Knee, Saturated: k.Saturated}
	}
	return out, kout, newObservation(o), nil
}
