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
// whether the packet was born before, during or after the outage window.
type FailSweepResult struct {
	Arch string
	// Outage is the swept spine-down window length; 0 is the baseline cell.
	Outage time.Duration
	// Delivered counts packets that completed end to end (a packet
	// delivered through a retransmission counts once); Failed counts
	// packets abandoned at the retry cap.
	Delivered int
	Failed    int
	// DuringOffered / DuringDelivered count packets born inside the outage
	// window and how many of them still delivered.
	DuringOffered   int
	DuringDelivered int
	// Dropped counts frames lost anywhere before recovery: queue tail
	// drops, down-element drops, burst losses and downed-uplink refusals.
	Dropped int
	// OutageDrops counts frames eaten by a down element (in-flight frames
	// included); BurstDrops frames lost to the Gilbert–Elliott process;
	// Rerouted frames ECMP steered off their primary spine; Degraded
	// frames forced onto the single-path fallback.
	OutageDrops uint64
	BurstDrops  uint64
	Rerouted    uint64
	Degraded    uint64
	// Retransmits counts ARQ retransmissions; Recovered counts packets
	// that delivered only through a retransmitted frame.
	Retransmits uint64
	Recovered   int
	// TimeToReroute is the delay from outage start to the first failover
	// routing decision, or -1 when nothing was rerouted.
	TimeToReroute time.Duration
	// MeanRecovery is the mean end-to-end latency of Recovered packets.
	MeanRecovery time.Duration
	// End-to-end latency percentiles by delivery instant relative to the
	// outage window (zero when the window saw no deliveries).
	P99Before  time.Duration
	P999Before time.Duration
	P99During  time.Duration
	P999During time.Duration
	P99After   time.Duration
	P999After  time.Duration
	// TailInflation is P99After / P99Before — post-recovery tail inflation.
	TailInflation float64
}

var failSweepHeader = []string{"arch", "outage_ns", "delivered", "failed", "dropped",
	"outage_drops", "burst_drops", "rerouted", "retransmits", "recovered",
	"reroute_ns", "mean_recovery_ns", "during_offered", "during_delivered",
	"p99_before_ns", "p99_during_ns", "p99_after_ns", "p999_after_ns", "tail_inflation"}

// FailSweepCSV renders failure-sweep rows as plot-ready CSV, one record
// per (architecture, outage) cell; reroute_ns is -1 when nothing was
// rerouted.
func FailSweepCSV(rows []FailSweepResult) string {
	return encodeCSV(failSweepHeader, rows, func(r FailSweepResult) []string {
		return []string{r.Arch, ns(r.Outage),
			fmt.Sprint(r.Delivered), fmt.Sprint(r.Failed), fmt.Sprint(r.Dropped),
			fmt.Sprint(r.OutageDrops), fmt.Sprint(r.BurstDrops),
			fmt.Sprint(r.Rerouted), fmt.Sprint(r.Retransmits), fmt.Sprint(r.Recovered),
			ns(r.TimeToReroute), ns(r.MeanRecovery),
			fmt.Sprint(r.DuringOffered), fmt.Sprint(r.DuringDelivered),
			ns(r.P99Before), ns(r.P99During), ns(r.P99After), ns(r.P999After),
			fmt.Sprintf("%.3f", r.TailInflation)}
	})
}

// RunFailSweepWithConfig runs the failure sweep on the system described by
// cfg: for each architecture and outage duration, 32 hosts on a
// 2-spine/4-leaf clos exchange cluster-mix traffic at 30% offered load while
// one spine is down for the given window, ECMP fails flows over to the
// surviving spine, and every sender recovers lost frames through the NIC's
// ack-timeout ARQ. outages is the duration axis (nil = {0, 5µs, 20µs, 60µs};
// 0 is the baseline), packets the total arrival count per cell (0 = 2400).
// The traffic shape comes from cfg.Load (a zero Hosts means 32), the clos
// shape from cfg.Fabric (zero = 2 spines × 4 leaves), and any background
// failure schedule — extra outage windows, burst loss — plus the ARQ retry
// knobs from cfg.Fault.
func RunFailSweepWithConfig(cfg Config, outages []time.Duration, packets int, seed uint64, parallelism int) (_ []FailSweepResult, err error) {
	rows, _, err := RunFailSweepObserved(cfg, outages, packets, seed, parallelism)
	return rows, err
}

// RunFailSweepObserved is RunFailSweepWithConfig with the observability
// plane armed per cfg.Obs: with metrics on, each cell publishes delivery,
// drop, reroute and retransmit counters plus engine probes. A zero
// cfg.Obs returns a nil Observation and output identical to
// RunFailSweepWithConfig.
func RunFailSweepObserved(cfg Config, outages []time.Duration, packets int, seed uint64, parallelism int) (_ []FailSweepResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	var axis []sim.Time
	if outages != nil {
		axis = make([]sim.Time, len(outages))
		for i, d := range outages {
			axis[i] = sim.FromDuration(d)
		}
	}
	fcfg := experiments.DefaultFailSweepConfig()
	fcfg.Packets = packets
	fcfg.Seed = seed
	rows, o, err := experiments.FailSweepObserved(cfg.spec(), axis, fcfg, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, err
	}
	out := make([]FailSweepResult, len(rows))
	for i, r := range rows {
		ttr := time.Duration(-1)
		if r.TimeToReroute >= 0 {
			ttr = toDuration(r.TimeToReroute)
		}
		out[i] = FailSweepResult{
			Arch:            r.Arch,
			Outage:          toDuration(r.Outage),
			Delivered:       r.Delivered,
			Failed:          r.Failed,
			DuringOffered:   r.DuringOffered,
			DuringDelivered: r.DuringDelivered,
			Dropped:         r.Dropped,
			OutageDrops:     r.OutageDrops,
			BurstDrops:      r.BurstDrops,
			Rerouted:        r.Rerouted,
			Degraded:        r.Degraded,
			Retransmits:     r.Retransmits,
			Recovered:       r.Recovered,
			TimeToReroute:   ttr,
			MeanRecovery:    toDuration(r.MeanRecovery),
			P99Before:       toDuration(r.P99Before),
			P999Before:      toDuration(r.P999Before),
			P99During:       toDuration(r.P99During),
			P999During:      toDuration(r.P999During),
			P99After:        toDuration(r.P99After),
			P999After:       toDuration(r.P999After),
			TailInflation:   r.TailInflation,
		}
	}
	return out, newObservation(o), nil
}
