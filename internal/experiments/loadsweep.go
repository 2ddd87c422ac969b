package experiments

import (
	"fmt"
	"math"

	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// The rack-scale load sweep: the latency-vs-offered-load curve the paper's
// unloaded replays never produce. N sender hosts fan in to one receiver
// through an output-queued switch (the incast pattern of Sec. 5.1's
// cluster traffic), arrivals are open-loop — they do not slow down when
// queues build — and every stage that can congest is a real queue: a
// serial TX driver per host, a finite egress buffer per port, and a serial
// RX driver at the receiver. As offered load approaches the slowest
// stage's capacity, queueing delay (and eventually tail drop) dominates
// the tail; the per-architecture saturation knee falls out of the p99
// curve. The receiver's RX driver is the architecture-dependent stage, so
// the sweep ranks dNIC / iNIC / NetDIMM by how much load each can absorb
// before its tail departs — the evaluation style of Alian et al.'s
// kernel-bypass gem5 study, applied to the NetDIMM comparison.

// DefaultLoadGrid is the default offered-load axis, as fractions of the
// receiver's line rate. It brackets every architecture's knee on the
// default (Table 1, database-cluster) scenario.
var DefaultLoadGrid = []float64{0.02, 0.05, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.22}

// loadEventBudget bounds each load-sweep cell's engine via the watchdog.
const loadEventBudget = 4_000_000

// loadShape is the resolved Load block of a specification, with the
// sweep's job-chunk free list.
type loadShape struct {
	hosts      int
	cluster    workload.Cluster
	process    workload.ArrivalProcess
	portBuffer int
	kneeFactor float64
	jobs       *jobPool
}

// resolveLoad checks a sweep's offered-load axis, then applies the sweep
// defaults to a validated Load block: a zero Hosts takes the family's
// default, and a family whose hosts exchange traffic needs minHosts.
func resolveLoad(l workload.LoadSpec, loads []float64, defHosts, minHosts int) (loadShape, error) {
	for _, x := range loads {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return loadShape{}, fmt.Errorf("offered load must be positive and finite, got %g", x)
		}
	}
	if err := l.Validate(); err != nil {
		return loadShape{}, err
	}
	cl, _ := workload.ParseCluster(l.Cluster)
	proc, _ := workload.ParseProcess(l.Process)
	sh := loadShape{hosts: l.Hosts, cluster: cl, process: proc,
		portBuffer: l.PortBuffer, kneeFactor: l.KneeFactor, jobs: &jobPool{}}
	if sh.hosts == 0 {
		sh.hosts = defHosts
	}
	if sh.hosts < minHosts {
		return loadShape{}, fmt.Errorf("need at least %d hosts to exchange traffic, got %d", minHosts, sh.hosts)
	}
	if sh.portBuffer == 0 {
		sh.portBuffer = 64
	}
	if sh.kneeFactor == 0 {
		sh.kneeFactor = 3
	}
	return sh, nil
}

// LoadRow is one (architecture, offered load) cell of the load sweep:
// end-to-end latency statistics over delivered packets plus the cell's
// congestion tallies.
type LoadRow struct {
	Arch string
	// Load is the offered fraction of the receiver's line rate.
	Load float64
	Mean sim.Time
	P50  sim.Time
	P99  sim.Time
	P999 sim.Time
	// Delivered counts packets that completed end to end; Dropped counts
	// frames tail-dropped by a full uplink or egress buffer.
	Delivered int
	Dropped   int
	// EgressMaxDepth and EgressQueueDelay describe the shared egress port
	// (the incast bottleneck on the wire side).
	EgressMaxDepth   int
	EgressQueueDelay sim.Time
	// RxMaxDepth is the receiver driver queue's high-water mark (the
	// architecture-dependent bottleneck).
	RxMaxDepth int
	// LinkUtilization is delivered wire occupancy over the cell's
	// makespan, in [0,1].
	LinkUtilization float64
	// Hist holds the cell's full latency sample set for cross-cell
	// aggregation.
	Hist *stats.Histogram
}

// LoadKnee is one architecture's detected saturation point.
type LoadKnee struct {
	Arch string
	// Knee is the highest swept load whose p99 stayed within
	// KneeFactor x the lowest swept load's p99; it is only meaningful
	// when Saturated is true. An unsaturated curve — including the
	// degenerate single-load grid, which cannot bracket a knee — reports
	// the explicit no-knee result {Knee: 0, Saturated: false}.
	Knee float64
	// Saturated reports whether any swept load exceeded that bound; when
	// false the grid never reached the architecture's knee.
	Saturated bool
}

// DetectKnees reduces sweep rows to one saturation knee per architecture,
// in Archs order. Rows must carry at least one load per
// architecture; loads are evaluated in ascending order and the lowest load
// is the tail baseline. Each architecture is one DetectRackKnees curve.
func DetectKnees(rows []LoadRow, kneeFactor float64) []LoadKnee {
	curves := make([]RackRow, len(rows))
	for i, r := range rows {
		curves[i] = RackRow{Arch: r.Arch, Load: r.Load, P99: r.P99}
	}
	rk := DetectRackKnees(curves, kneeFactor)
	var knees []LoadKnee
	for _, arch := range Archs {
		for _, k := range rk {
			if k.Arch == arch {
				knees = append(knees, LoadKnee{Arch: arch, Knee: k.Knee, Saturated: k.Saturated})
			}
		}
	}
	return knees
}

// LoadSweepObserved runs the rack-scale open-loop load sweep: for every
// (architecture, offered load) cell it simulates loads[i] of the line rate
// fanning in from the spec's Load.Hosts senders to one receiver and
// reports the end-to-end latency distribution over packets arrivals
// (DefaultPackets when not positive) split across the senders, then
// reduces the rows to one saturation knee per architecture. A nil loads
// slice uses DefaultLoadGrid.
//
// Cells are deterministic: each builds its own engine, machines and
// arrival streams from per-cell seeds, so results are identical
// sequentially and in parallel. Along one architecture's load axis the
// packet sequence is held fixed (only the arrival spacing scales), so the
// latency curve isolates queueing.
//
// When ospec enables collection, each (arch, load) cell gets a Cell
// labelled "loadsweep/<arch>/load=<load>" with receiver queue-depth and
// egress depth series, delivery/drop counters, link utilisation and engine
// probes. A zero ospec yields a nil observer.
func LoadSweepObserved(sp spec.Spec, loads []float64, packets int, seed uint64, parallelism int, ospec obs.Spec) ([]LoadRow, []LoadKnee, *obs.Observer, error) {
	if packets <= 0 {
		packets = DefaultPackets
	}
	if len(loads) == 0 {
		loads = DefaultLoadGrid
	}
	shape, err := resolveLoad(sp.Load, loads, 8, 1)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loadsweep: %w", err)
	}
	axes := func(i int) (string, float64) { return Archs[i/len(loads)], loads[i%len(loads)] }
	rows, o, err := runCells(len(Archs)*len(loads), parallelism, ospec, func(i int) string {
		arch, load := axes(i)
		return fmt.Sprintf("loadsweep/%s/load=%g", arch, load)
	}, func(i int, oc *obs.Cell) (LoadRow, error) {
		arch, load := axes(i)
		c, err := runFabricCell(sp, arch, shape, cellOpts{load: load, packets: packets,
			eventBudget: loadEventBudget, seed: seed, incast: true}, oc)
		if err != nil {
			return LoadRow{}, fmt.Errorf("loadsweep: %s at load %g: %w", arch, load, err)
		}
		return c.loadRow(load), nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return rows, DetectKnees(rows, shape.kneeFactor), o, nil
}

// loadRow projects an incast cell onto its load sweep row and publishes
// the row's metrics. The cell spec's fabric (the zero Fabric block
// resolves to one leaf and no spines, the single-switch incast) carries
// every sender's traffic into the receiver's downlink.
func (c *fabricCell) loadRow(load float64) LoadRow {
	eg := c.topo.Downlink(c.hosts).Stats()
	util := c.utilization(1)
	reg, arch := c.reg, c.arch
	reg.Gauge(arch + ".link_util_pct").Set(int64(math.Round(util * 100)))
	reg.Gauge(arch + ".egress_max_depth").Set(int64(eg.MaxDepth))
	reg.Gauge(arch + ".rx_max_depth").Set(int64(c.rxMax))
	if c.topo.Spec().ECNThreshold > 0 {
		reg.Gauge(arch + ".ecn_marked").Set(int64(c.fstats.Marked))
	}
	return LoadRow{
		Arch:             arch,
		Load:             load,
		Mean:             c.hist.Mean(),
		P50:              c.hist.Percentile(50),
		P99:              c.hist.Percentile(99),
		P999:             c.hist.Percentile(99.9),
		Delivered:        c.delivered,
		Dropped:          c.dropped,
		EgressMaxDepth:   eg.MaxDepth,
		EgressQueueDelay: eg.AvgQueueDelay(),
		RxMaxDepth:       c.rxMax,
		LinkUtilization:  util,
		Hist:             c.hist,
	}
}
