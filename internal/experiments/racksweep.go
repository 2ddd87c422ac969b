package experiments

import (
	"fmt"
	"math"

	"netdimm/internal/fabric"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
)

// The rack sweep scales the load sweep out to the fabric: many hosts
// spread over a leaf/spine clos, every host both sending and receiving,
// destinations drawn from the cluster's published flow-locality mix (so
// database traffic is ~90% cross-rack and hadoop ~10%), ECMP spreading
// cross-rack flows over the spines, and — on half the cells — ECN pacing
// the senders whose flows congest a queue. The axes are architecture x
// rack count x ECN x offered load; the reduction is one saturation knee
// per (arch, racks, ECN) curve, so the sweep answers two questions the
// one-switch incast cannot: how much of each architecture's headroom
// survives multi-hop queueing, and how much of it ECN claws back.

// DefaultRackGrid is the default rack-count axis.
var DefaultRackGrid = []int{2, 4, 8}

// DefaultRackLoadGrid is the default per-host offered-load axis, as
// fractions of one host's line rate. The grid is geometric: the knees sit
// an octave apart (the slow dNIC TX driver self-paces and rides out far
// more offered load than the near-memory paths, whose bursts congest the
// spine layer), so doubling steps bracket every architecture's knee
// without wasting cells on one curve's flat region.
var DefaultRackLoadGrid = []float64{0.05, 0.1, 0.2, 0.4, 0.8}

// DefaultRackHosts is the default host count: large enough that the spine
// layer, not any single queue, is the contended resource.
const DefaultRackHosts = 256

// rackPackets is the default total arrival count per cell, split across
// all hosts: about sixteen per host at the default 256, deep enough a
// host's open-loop backlog can push the tail past the knee factor instead
// of draining before the queue matters.
const rackPackets = 4000

// rackEventBudget bounds each rack-sweep cell's engine via the watchdog;
// the clos pays several queue hops per packet.
const rackEventBudget = 8_000_000

// RackRow is one (architecture, racks, ECN, offered load) cell of the rack
// sweep: end-to-end latency statistics over delivered packets plus the
// cell's fabric tallies.
type RackRow struct {
	Arch string
	// Racks is the leaf count of the cell's clos.
	Racks int
	// ECN reports whether the cell ran with marking and sender backoff.
	ECN bool
	// Load is each host's offered fraction of its own line rate.
	Load float64
	Mean sim.Time
	P50  sim.Time
	P99  sim.Time
	P999 sim.Time
	// Delivered counts packets that completed end to end; Dropped counts
	// frames tail-dropped at any hop (uplink, leaf or spine queue).
	Delivered int
	Dropped   int
	// Marked counts frames freshly ECN-marked at any fabric queue.
	Marked int
	// CrossRack counts packets whose destination lay in another rack.
	CrossRack int
	// LeafMaxDepth and SpineMaxDepth are the deepest output queues seen at
	// each fabric layer.
	LeafMaxDepth  int
	SpineMaxDepth int
	// RxMaxDepth is the deepest receiver driver queue across all hosts.
	RxMaxDepth int
	// LinkUtilization is the delivered wire occupancy averaged over all
	// host links and the cell's makespan, in [0,1].
	LinkUtilization float64
	// Hist holds the cell's full latency sample set for cross-cell
	// aggregation.
	Hist *stats.Histogram
}

// RackKnee is one (arch, racks, ECN) curve's detected saturation point.
type RackKnee struct {
	Arch  string
	Racks int
	ECN   bool
	// Knee is the highest swept load whose p99 stayed within
	// KneeFactor x the lowest swept load's p99; it is only meaningful
	// when Saturated is true. An unsaturated curve — including the
	// degenerate single-load grid, which cannot bracket a knee — reports
	// the explicit no-knee result {Knee: 0, Saturated: false}.
	Knee float64
	// Saturated reports whether any swept load exceeded that bound; when
	// false the grid never reached the curve's knee.
	Saturated bool
}

// DetectRackKnees reduces sweep rows to one saturation knee per
// (arch, racks, ECN) curve, in first-appearance order. Within each curve
// loads are evaluated ascending and the lowest load is the tail baseline.
func DetectRackKnees(rows []RackRow, kneeFactor float64) []RackKnee {
	if kneeFactor <= 0 {
		kneeFactor = 3
	}
	type curve struct {
		arch  string
		racks int
		ecn   bool
	}
	groups := make(map[curve][]RackRow)
	var order []curve
	for _, r := range rows {
		k := curve{r.Arch, r.Racks, r.ECN}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var knees []RackKnee
	for _, k := range order {
		rs := groups[k]
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0 && rs[j-1].Load > rs[j].Load; j-- {
				rs[j-1], rs[j] = rs[j], rs[j-1]
			}
		}
		base := rs[0].P99
		knee := RackKnee{Arch: k.arch, Racks: k.racks, ECN: k.ecn}
		for _, r := range rs {
			if base > 0 && float64(r.P99) > kneeFactor*float64(base) {
				knee.Saturated = true
				break
			}
			knee.Knee = r.Load
		}
		if !knee.Saturated {
			// The grid never crossed the bound (or had a single row, which
			// cannot bracket a knee): report the explicit no-knee result
			// instead of passing the top of the grid off as a knee.
			knee.Knee = 0
		}
		knees = append(knees, knee)
	}
	return knees
}

// RackSweepObserved runs the rack-count sweep: for every (architecture,
// racks, ECN, offered load) cell it simulates the spec's hosts (default
// 256) exchanging packets packets (rackPackets when not positive) of
// cluster-mix traffic over a racks-leaf clos, with and without ECN, and
// reduces the rows to saturation knees. Nil axes use
// DefaultRackGrid and DefaultRackLoadGrid; a spec whose Fabric block pins
// Leaves sweeps only that rack count.
//
// Cells are deterministic: each builds its own engine, fabric, machines
// and arrival/destination streams from per-cell seeds, so results are
// identical sequentially and in parallel.
//
// When ospec enables collection, each cell gets a Cell labelled
// "racksweep/<arch>/racks=<n>/ecn=<on|off>/load=<g>" with delivery, drop
// and mark counters, fabric depth gauges and engine probes. A zero ospec
// yields a nil observer.
func RackSweepObserved(sp spec.Spec, racks []int, loads []float64, packets int, seed uint64, parallelism int, ospec obs.Spec) ([]RackRow, []RackKnee, *obs.Observer, error) {
	if packets <= 0 {
		packets = rackPackets
	}
	if len(racks) == 0 {
		if sp.Fabric.Leaves > 0 {
			racks = []int{sp.Fabric.Leaves}
		} else {
			racks = DefaultRackGrid
		}
	}
	for _, r := range racks {
		if r < 1 {
			return nil, nil, nil, fmt.Errorf("racksweep: rack count must be at least 1, got %d", r)
		}
	}
	if len(loads) == 0 {
		loads = DefaultRackLoadGrid
	}
	shape, err := resolveLoad(sp.Load, loads, DefaultRackHosts, 2)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("racksweep: %w", err)
	}
	// The ECN-on half of the axis: the spec's threshold, or the fabric
	// default when the spec leaves it unset.
	ecnThreshold := sp.Fabric.ECNThreshold
	if ecnThreshold == 0 {
		ecnThreshold = fabric.DefaultECNThreshold
	}

	ecns := []bool{false, true}
	axes := func(i int) (arch string, rk int, ecn bool, load float64) {
		arch = Archs[i/(len(racks)*len(ecns)*len(loads))]
		i %= len(racks) * len(ecns) * len(loads)
		rk = racks[i/(len(ecns)*len(loads))]
		i %= len(ecns) * len(loads)
		return arch, rk, ecns[i/len(loads)], loads[i%len(loads)]
	}
	rows, o, err := runCells(len(Archs)*len(racks)*len(ecns)*len(loads), parallelism, ospec, func(i int) string {
		arch, rk, ecn, load := axes(i)
		return fmt.Sprintf("racksweep/%s/racks=%d/ecn=%s/load=%g", arch, rk, onOff(ecn), load)
	}, func(i int, oc *obs.Cell) (RackRow, error) {
		arch, rk, ecn, load := axes(i)
		cell := sp
		cell.Fabric.Leaves = rk
		if cell.Fabric.Spines == 0 {
			cell.Fabric.Spines = rackSpines(shape.hosts, rk)
		}
		if ecn {
			cell.Fabric.ECNThreshold = ecnThreshold
		} else {
			cell.Fabric.ECNThreshold = 0
			cell.Fabric.ECNBackoffNs = 0
		}
		c, err := runFabricCell(cell, arch, shape, cellOpts{load: load, packets: packets,
			eventBudget: rackEventBudget, seed: seed}, oc)
		if err != nil {
			return RackRow{}, fmt.Errorf("racksweep: %s racks=%d ecn=%s at load %g: %w", arch, rk, onOff(ecn), load, err)
		}
		return c.rackRow(load), nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return rows, DetectRackKnees(rows, shape.kneeFactor), o, nil
}

// rackSpines sizes the spine layer when the spec leaves it unset: one
// spine per eight hosts in a rack (8:1 oversubscription, a common
// datacenter design point — the fabric-level default of two spines is
// meant for handfuls of hosts and would drown a 256-host sweep in spine
// drops), floor two so ECMP always has a choice.
func rackSpines(hosts, racks int) int {
	perLeaf := (hosts + racks - 1) / racks
	s := (perLeaf + 7) / 8
	if s < 2 {
		s = 2
	}
	return s
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// rackRow projects a many-to-many cell onto its rack sweep row and
// publishes the row's metrics.
func (c *fabricCell) rackRow(load float64) RackRow {
	util := c.utilization(c.hosts)
	reg, arch, fs := c.reg, c.arch, c.fstats
	reg.Counter(arch + ".ecn_marked").Add(int64(fs.Marked))
	reg.Gauge(arch + ".leaf_max_depth").Set(int64(fs.LeafMaxDepth))
	reg.Gauge(arch + ".spine_max_depth").Set(int64(fs.SpineMaxDepth))
	reg.Gauge(arch + ".rx_max_depth").Set(int64(c.rxMax))
	reg.Gauge(arch + ".link_util_pct").Set(int64(math.Round(util * 100)))
	return RackRow{
		Arch:            arch,
		Racks:           c.topo.Leaves(),
		ECN:             c.topo.Spec().ECNThreshold > 0,
		Load:            load,
		Mean:            c.hist.Mean(),
		P50:             c.hist.Percentile(50),
		P99:             c.hist.Percentile(99),
		P999:            c.hist.Percentile(99.9),
		Delivered:       c.delivered,
		Dropped:         c.dropped,
		Marked:          int(fs.Marked),
		CrossRack:       c.crossRack,
		LeafMaxDepth:    fs.LeafMaxDepth,
		SpineMaxDepth:   fs.SpineMaxDepth,
		RxMaxDepth:      c.rxMax,
		LinkUtilization: util,
		Hist:            c.hist,
	}
}
