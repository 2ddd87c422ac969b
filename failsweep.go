package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/experiments"
	"netdimm/internal/sim"
)

// FailSweepResult is one (architecture, outage duration) cell of the
// failure sweep: how the cell absorbed a scheduled spine outage — the
// failover record, the ARQ recovery record, and the latency tail split by
// whether the packet was delivered before, during or after the outage
// window.
type FailSweepResult = experiments.FailRow

var failSweepHeader = []string{"arch", "outage_ns", "delivered", "failed", "dropped",
	"outage_drops", "burst_drops", "rerouted", "retransmits", "recovered",
	"reroute_ns", "mean_recovery_ns", "during_offered", "during_delivered",
	"p99_before_ns", "p99_during_ns", "p99_after_ns", "p999_after_ns", "tail_inflation"}

// FailSweepCSV renders failure-sweep rows as plot-ready CSV, one record
// per (architecture, outage) cell; reroute_ns is -1 when nothing was
// rerouted.
func FailSweepCSV(rows []FailSweepResult) string {
	return encodeCSV(failSweepHeader, rows, func(r FailSweepResult) []string {
		reroute := "-1"
		if r.TimeToReroute >= 0 {
			reroute = ns(r.TimeToReroute.Duration())
		}
		return []string{r.Arch, ns(r.Outage.Duration()),
			fmt.Sprint(r.Delivered), fmt.Sprint(r.Failed), fmt.Sprint(r.Dropped),
			fmt.Sprint(r.OutageDrops), fmt.Sprint(r.BurstDrops),
			fmt.Sprint(r.Rerouted), fmt.Sprint(r.Retransmits), fmt.Sprint(r.Recovered),
			reroute, ns(r.MeanRecovery.Duration()),
			fmt.Sprint(r.DuringOffered), fmt.Sprint(r.DuringDelivered),
			ns(r.P99Before.Duration()), ns(r.P99During.Duration()),
			ns(r.P99After.Duration()), ns(r.P999After.Duration()),
			fmt.Sprintf("%.3f", r.TailInflation)}
	})
}

// RunFailSweepObserved runs the failure sweep on the system described by
// cfg: for each architecture and outage duration, 32 hosts on a
// 2-spine/4-leaf clos exchange cluster-mix traffic at 8% offered load while
// one spine is down for the given window, ECMP fails flows over to the
// surviving spine, and every sender recovers lost frames through the NIC's
// ack-timeout ARQ. outages is the duration axis (nil =
// experiments.DefaultOutageGrid, {0, 5µs, 20µs, 60µs}; 0 is the
// baseline), packets the total arrival count per cell (0 = 2400). The
// traffic shape comes from cfg.Load (a zero Hosts means 32), the clos
// shape from cfg.Fabric (zero = 2 spines × 4 leaves), and any background
// failure schedule — extra outage windows, burst loss — plus the ARQ
// retry knobs from cfg.Fault.
//
// The observability plane is armed per cfg.Obs: with metrics on, each
// cell publishes delivery, drop, reroute and retransmit counters plus
// engine probes. A zero cfg.Obs returns a nil Observation.
func RunFailSweepObserved(cfg Config, outages []time.Duration, packets int, seed uint64, parallelism int) (_ []FailSweepResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	var axis []sim.Time
	for _, d := range outages {
		axis = append(axis, simT(d))
	}
	rows, o, err := experiments.FailSweepObserved(cfg, axis, packets, seed, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, err
	}
	return rows, newObservation(o), nil
}
