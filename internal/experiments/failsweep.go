package experiments

import (
	"fmt"

	"netdimm/internal/fault"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
)

// The failure sweep measures what the load and rack sweeps assume away:
// how each architecture rides out a fabric that loses capacity mid-run. A
// scheduled spine outage takes one of the clos's two spines down for a
// window [start, start+duration); ECMP consults the fabric health view,
// so flows hashed onto the dead spine fail over to the survivor the
// moment the window opens, while frames already in flight toward it are
// eaten and recovered by each sender's ack-timeout ARQ. The axes are
// architecture × outage duration on a fixed 2-spine/4-leaf clos at a
// fixed offered load; every row reports the failover record (rerouted
// flows, outage drops, time-to-reroute), the recovery record
// (retransmits, packets recovered, mean recovery time), and the latency
// tail split by when the packet was delivered — before, during or after
// the window — so post-recovery tail inflation is read directly off the row.

// DefaultOutageGrid is the default outage-duration axis. Zero is the
// baseline cell every other duration is compared against.
var DefaultOutageGrid = []sim.Time{0, 5 * sim.Microsecond, 20 * sim.Microsecond, 60 * sim.Microsecond}

// DefaultFailHosts is the default host count: the 2×4 clos scenario's 32,
// eight per leaf.
const DefaultFailHosts = 32

// Default clos shape when the spec's Fabric block is zero: the 2-spine ×
// 4-leaf clos (scenarios/clos-2x4.json), the smallest fabric where a
// spine outage halves — rather than removes — the cross-rack capacity.
const (
	defaultFailLeaves = 4
	defaultFailSpines = 2
)

// defaultFailRetryBase is the ARQ retransmit base when the spec's Fault
// block leaves RetryBaseNs zero: the fault plane's 1µs link-level default
// would fire well inside a loaded clos round trip and flood the fabric
// with spurious copies, so the sweep sizes the timer above the loaded
// end-to-end tail instead.
const defaultFailRetryBase = 30 * sim.Microsecond

// The failure sweep's fixed rig: the offered load, the swept outage's
// start and spine, and the default arrival count.
const (
	// failLoad is each host's offered fraction of its own line rate: busy
	// enough that queues exist, below every architecture's saturation knee
	// so tail inflation is attributable to the outage, and light enough
	// that the loaded tail sits well under the retransmit timer, keeping
	// the baseline free of spurious retransmissions.
	failLoad = 0.08
	// failOutageStart is when the swept outage window opens, past the
	// cold-start transient.
	failOutageStart = 20 * sim.Microsecond
	failSpine       = 0
	// failPackets is the default total arrival count per cell, split
	// across all hosts: 75 per host at the default 32, a makespan several
	// times the longest default outage.
	failPackets = 2400
)

// failEventBudget bounds each failure-sweep cell's engine via the
// watchdog.
const failEventBudget = 8_000_000

// FailRow is one (architecture, outage duration) cell of the failure
// sweep. Latency percentiles are split by the packet's delivery instant
// relative to the outage window; the failover and recovery tallies
// describe how the cell absorbed the outage.
type FailRow struct {
	Arch string
	// Outage is the swept spine-down window length; 0 is the baseline.
	Outage sim.Time
	// Delivered counts packets that completed end to end (duplicates from
	// spurious retransmits are counted once); Failed counts packets
	// abandoned after the retry cap (always 0 with unlimited retries).
	Delivered int
	Failed    int
	// DuringOffered / DuringDelivered count packets born inside the
	// outage window and how many of them still delivered — the
	// delivered-during-outage fraction.
	DuringOffered   int
	DuringDelivered int
	// Dropped counts frames lost anywhere before recovery: queue tail
	// drops, down-element (outage) drops, burst losses and downed-uplink
	// refusals.
	Dropped int
	// OutageDrops counts frames eaten by the down spine (in-flight frames
	// included); BurstDrops frames lost to a scheduled Gilbert–Elliott
	// process; Rerouted frames ECMP steered off their primary spine;
	// Degraded frames forced onto the single-path fallback.
	OutageDrops uint64
	BurstDrops  uint64
	Rerouted    uint64
	Degraded    uint64
	// Retransmits counts ARQ retransmissions across all hosts; Recovered
	// counts packets that delivered only through a retransmitted frame.
	Retransmits uint64
	Recovered   int
	// TimeToReroute is the delay from outage start to the first failover
	// routing decision, or -1 when no frame was rerouted (the baseline).
	TimeToReroute sim.Time
	// MeanRecovery is the mean end-to-end latency of Recovered packets —
	// the mean time-to-recover a lost frame, dominated by the retransmit
	// timer.
	MeanRecovery sim.Time
	// Percentiles of end-to-end latency by delivery instant relative to
	// the outage window: Before is the clean pre-outage steady state,
	// During covers completions while the spine is down (failover detours
	// and in-window recoveries), After everything past the window —
	// including recoveries of frames the outage ate near its end. Each is
	// zero when its window saw no deliveries.
	P99Before  sim.Time
	P999Before sim.Time
	P99During  sim.Time
	P999During sim.Time
	P99After   sim.Time
	P999After  sim.Time
	// TailInflation is P99After / P99Before — the post-recovery tail
	// relative to the same cell's pre-outage tail (compare against the
	// baseline cell's value to cancel warm-up drift).
	TailInflation float64
	// Hist holds the cell's full latency sample set.
	Hist *stats.Histogram
}

// FailSweepObserved runs the failure sweep: for every (architecture, outage
// duration) cell, the spec's hosts (default 32 on a 2-spine/4-leaf clos)
// exchange packets packets (failPackets when not positive) of cluster-mix
// traffic at failLoad while spine 0 is down for [20µs, 20µs+duration),
// and every sender recovers lost frames through the NIC's ack-timeout
// ARQ. A nil durations axis uses DefaultOutageGrid; duration 0 is the
// baseline.
//
// Cells are deterministic: each builds its own engine, fabric, health
// schedule and streams from per-cell seeds, so results are identical
// sequentially and in parallel.
//
// When ospec enables collection, each cell gets a Cell labelled
// "failsweep/<arch>/outage=<dur>" with delivery, drop, reroute and
// retransmit counters, the merged fault-counter block and engine probes. A
// zero ospec yields a nil observer.
func FailSweepObserved(sp spec.Spec, outages []sim.Time, packets int, seed uint64, parallelism int, ospec obs.Spec) ([]FailRow, *obs.Observer, error) {
	if packets <= 0 {
		packets = failPackets
	}
	if len(outages) == 0 {
		outages = DefaultOutageGrid
	}
	for _, d := range outages {
		if d < 0 {
			return nil, nil, fmt.Errorf("failsweep: outage duration must not be negative, got %v", d)
		}
	}
	shape, err := resolveLoad(sp.Load, nil, DefaultFailHosts, 2)
	if err != nil {
		return nil, nil, fmt.Errorf("failsweep: %w", err)
	}
	if sp.Fabric.Leaves == 0 {
		sp.Fabric.Leaves = defaultFailLeaves
	}
	if sp.Fabric.Spines == 0 {
		sp.Fabric.Spines = defaultFailSpines
	}

	axes := func(i int) (string, sim.Time) { return Archs[i/len(outages)], outages[i%len(outages)] }
	return runCells(len(Archs)*len(outages), parallelism, ospec, func(i int) string {
		arch, dur := axes(i)
		return fmt.Sprintf("failsweep/%s/outage=%v", arch, dur)
	}, func(i int, oc *obs.Cell) (FailRow, error) {
		arch, dur := axes(i)
		c, err := runFabricCell(sp, arch, shape, cellOpts{load: failLoad, packets: packets,
			eventBudget: failEventBudget, seed: seed,
			outage: &outageWindow{start: failOutageStart, end: failOutageStart + dur}}, oc)
		if err != nil {
			return FailRow{}, fmt.Errorf("failsweep: %s outage=%v: %w", arch, dur, err)
		}
		return c.failRow(dur), nil
	})
}

// failPolicy resolves the sweep's ARQ policy from the spec's Fault knobs,
// substituting the fabric-scale retransmit base when the spec leaves it
// at zero.
func failPolicy(fs fault.Spec) fault.RetryPolicy {
	if fs.RetryBaseNs == 0 {
		fs.RetryBaseNs = int(defaultFailRetryBase / sim.Nanosecond)
	}
	return fs.NetPolicy()
}

// failRow projects an ARQ cell onto its failure sweep row and publishes
// the row's metrics.
func (c *fabricCell) failRow(dur sim.Time) FailRow {
	t, fs := c.arq, c.fstats
	timeToReroute := sim.Time(-1)
	if hv := c.topo.Health(); hv != nil {
		if first := hv.Stats().FirstReroute; first >= 0 {
			timeToReroute = first - t.start
		}
	}
	var meanRecovery sim.Time
	if t.recovered > 0 {
		meanRecovery = t.recoverySum / sim.Time(t.recovered)
	}
	p99Before := t.before.Percentile(99)
	p99After := t.after.Percentile(99)
	inflation := 0.0
	if p99Before > 0 && p99After > 0 {
		inflation = float64(p99After) / float64(p99Before)
	}

	reg, arch := c.reg, c.arch
	reg.Counter(arch + ".rerouted").Add(int64(fs.Rerouted))
	reg.Counter(arch + ".outage_drops").Add(int64(fs.OutageDrops))
	fault.PublishCounters(reg, arch, t.ctrs)
	reg.Gauge(arch + ".leaf_max_depth").Set(int64(fs.LeafMaxDepth))
	reg.Gauge(arch + ".spine_max_depth").Set(int64(fs.SpineMaxDepth))

	return FailRow{
		Arch:            arch,
		Outage:          dur,
		Delivered:       c.delivered,
		Failed:          t.failed,
		DuringOffered:   t.duringOffered,
		DuringDelivered: t.duringDelivered,
		Dropped:         c.dropped,
		OutageDrops:     fs.OutageDrops,
		BurstDrops:      fs.BurstDrops,
		Rerouted:        fs.Rerouted,
		Degraded:        fs.Degraded,
		Retransmits:     t.ctrs.Retransmits,
		Recovered:       t.recovered,
		TimeToReroute:   timeToReroute,
		MeanRecovery:    meanRecovery,
		P99Before:       p99Before,
		P999Before:      t.before.Percentile(99.9),
		P99During:       t.during.Percentile(99),
		P999During:      t.during.Percentile(99.9),
		P99After:        p99After,
		P999After:       t.after.Percentile(99.9),
		TailInflation:   inflation,
		Hist:            c.hist,
	}
}
