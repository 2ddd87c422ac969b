package experiments

import (
	"fmt"
	"math"

	"netdimm/internal/driver"
	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/fault"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
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

// RackSweepConfig parameterises one rack sweep; traffic shape and
// buffering come from the specification's Load block, the clos shape
// and ECN tuning from its Fabric block.
type RackSweepConfig struct {
	// Packets is the total arrival count per cell, split across all hosts
	// (default 4000 — about sixteen per host at the default 256, deep
	// enough a host's open-loop backlog can push the tail past the knee
	// factor instead of draining before the queue matters).
	Packets int
	// EventBudget bounds each cell's engine via the watchdog (default
	// 8,000,000 — the clos pays several queue hops per packet).
	EventBudget uint64
	// Seed perturbs every host's arrival and destination streams.
	Seed uint64
}

// DefaultRackSweepConfig returns the sweep defaults.
func DefaultRackSweepConfig() RackSweepConfig {
	return RackSweepConfig{Packets: 4000, EventBudget: 8_000_000}
}

func (c RackSweepConfig) withDefaults() RackSweepConfig {
	def := DefaultRackSweepConfig()
	if c.Packets <= 0 {
		c.Packets = def.Packets
	}
	if c.EventBudget == 0 {
		c.EventBudget = def.EventBudget
	}
	return c
}

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
			// Same no-knee contract as DetectKnees: an unsaturated curve
			// reports Knee 0 instead of the top of the grid.
			knee.Knee = 0
		}
		knees = append(knees, knee)
	}
	return knees
}

// RackSweep runs the rack-count sweep: for every (architecture, racks,
// ECN, offered load) cell it simulates the spec's hosts (default 256)
// exchanging cluster-mix traffic over a racks-leaf clos, with and without
// ECN, and reduces the rows to saturation knees. Nil axes use
// DefaultRackGrid and DefaultRackLoadGrid; a spec whose Fabric block pins
// Leaves sweeps only that rack count.
//
// Cells are deterministic: each builds its own engine, fabric, machines
// and arrival/destination streams from per-cell seeds, so results are
// identical sequentially and in parallel.
func RackSweep(sp spec.Spec, racks []int, loads []float64, cfg RackSweepConfig, parallelism int) ([]RackRow, []RackKnee, error) {
	rows, knees, _, err := RackSweepObserved(sp, racks, loads, cfg, parallelism, obs.Spec{})
	return rows, knees, err
}

// RackSweepObserved is RackSweep with the observability plane: when ospec
// enables collection, each cell gets a Cell labelled
// "racksweep/<arch>/racks=<n>/ecn=<on|off>/load=<g>" with delivery, drop
// and mark counters, fabric depth gauges and engine probes. A zero ospec
// yields a nil observer and the exact RackSweep behaviour.
func RackSweepObserved(sp spec.Spec, racks []int, loads []float64, cfg RackSweepConfig, parallelism int, ospec obs.Spec) ([]RackRow, []RackKnee, *obs.Observer, error) {
	cfg = cfg.withDefaults()
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
	for _, l := range loads {
		if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return nil, nil, nil, fmt.Errorf("racksweep: offered load must be positive and finite, got %g", l)
		}
	}
	shape, err := resolveLoad(sp.Load)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("racksweep: %w", err)
	}
	if sp.Load.Hosts == 0 {
		shape.hosts = DefaultRackHosts
	}
	if shape.hosts < 2 {
		return nil, nil, nil, fmt.Errorf("racksweep: need at least 2 hosts to exchange traffic, got %d", shape.hosts)
	}
	// The ECN-on half of the axis: the spec's threshold, or the fabric
	// default when the spec leaves it unset.
	ecnThreshold := sp.Fabric.ECNThreshold
	if ecnThreshold == 0 {
		ecnThreshold = fabric.DefaultECNThreshold
	}

	ecns := []bool{false, true}
	n := len(LoadSweepArchs) * len(racks) * len(ecns) * len(loads)
	axes := func(i int) (arch string, rk int, ecn bool, load float64) {
		arch = LoadSweepArchs[i/(len(racks)*len(ecns)*len(loads))]
		i %= len(racks) * len(ecns) * len(loads)
		rk = racks[i/(len(ecns)*len(loads))]
		i %= len(ecns) * len(loads)
		return arch, rk, ecns[i/len(loads)], loads[i%len(loads)]
	}
	var o *obs.Observer
	if ospec.Enabled() {
		labels := make([]string, n)
		for i := range labels {
			arch, rk, ecn, load := axes(i)
			labels[i] = fmt.Sprintf("racksweep/%s/racks=%d/ecn=%s/load=%g", arch, rk, onOff(ecn), load)
		}
		o = obs.New(ospec, labels...)
	}
	rows := make([]RackRow, n)
	errs := make([]error, n)
	forEachCell(n, parallelism, func(i int) {
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
		row, err := rackCell(cell, arch, load, shape, cfg, o.Cell(i))
		if err != nil {
			errs[i] = fmt.Errorf("racksweep: %s racks=%d ecn=%s at load %g: %w", arch, rk, onOff(ecn), load, err)
			return
		}
		rows[i] = row
	})
	if err := firstError(errs); err != nil {
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

// rackCell runs one (arch, racks, ECN, load) cell: shape.hosts hosts
// exchanging cluster-mix traffic over the cell spec's clos. The ECN/fault
// wiring is loadCell's (see its doc); the differences are many-to-many
// traffic — every host carries a TX and an RX machine, destinations ride a
// per-host stream through workload.SampleDest — and fabric-wide tallies in
// the row.
func rackCell(sp spec.Spec, arch string, load float64, shape loadShape, cfg RackSweepConfig, oc *obs.Cell) (RackRow, error) {
	d := sp.MustDerive()
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: cfg.EventBudget})
	link := d.Link

	txs, rxs, err := rackEndpoints(d, arch, shape.hosts, cfg.Seed)
	if err != nil {
		return RackRow{}, err
	}

	// Each host offers `load` of its OWN line rate (one source per link),
	// unlike the incast sweep where all hosts share the receiver's link.
	perHostGap, err := shape.cluster.MeanGapForLoad(load, 1, link.BitsPerSec/1e9)
	if err != nil {
		return RackRow{}, err
	}

	reg := oc.Metrics()
	deliveredC := reg.Counter(arch + ".delivered")
	droppedC := reg.Counter(arch + ".dropped")
	markedC := reg.Counter(arch + ".ecn_marked")
	obs.NewEngineProbe(reg, arch+".engine").Attach(eng)

	topo := d.NewTopology(fabric.SingleEngine(eng), shape.hosts, shape.portBuffer)
	if d.Spec.Fault.PortDropProb > 0 {
		topo.InjectFaults(fault.NewInjector(d.Spec.Fault, cfg.Seed))
	}
	if _, err := topo.ArmFailures(d.Spec.Fault.Failure, cfg.Seed); err != nil {
		return RackRow{}, err
	}
	ecn := topo.Spec().ECNThreshold > 0

	// Every host receives: one RX driver queue per host.
	recvs := make([]*serialServer, shape.hosts)
	for i := range recvs {
		recvs[i] = &serialServer{eng: eng}
	}

	var hist stats.Histogram
	delivered, dropped, crossRack := 0, 0, 0
	var wireBusy sim.Time

	for h := 0; h < shape.hosts; h++ {
		count := shareCount(cfg.Packets, shape.hosts, h)
		if count == 0 {
			continue
		}
		// Per-host seeds are independent of the offered load, so the
		// packet and destination sequences are identical along the load
		// axis; the destination stream is separate from the arrival stream
		// so the fabric shape cannot perturb the traffic.
		gen := workload.NewOpenLoop(shape.cluster, shape.process, perHostGap,
			cfg.Seed+uint64(h)*0x9e3779b97f4a7c15)
		destR := sim.NewRand(cfg.Seed ^ 0x5eed0fde57 + uint64(h)*0x9e3779b97f4a7c15)
		txSrv := &serialServer{eng: eng}
		tx := txs[h]
		src := h
		host := uint64(h)
		var pacer *fabric.Pacer
		if ecn {
			pacer = &fabric.Pacer{Backoff: topo.Spec().ECNBackoff(),
				Stall: func(dur sim.Time, done func()) { txSrv.Submit(dur, done) }}
		}

		var arm func(i int)
		arm = func(i int) {
			if i >= count {
				return
			}
			e := gen.Next()
			eng.At(e.At, func() {
				arm(i + 1)
				p := e.Packet(host<<32 | uint64(i))
				dst := workload.SampleDest(destR, e.Locality, src, shape.hosts, topo.Leaves())
				if topo.CrossesSpine(src, dst) {
					crossRack++
				}
				born := eng.Now()
				txSrv.Submit(tx.TX(p).Total(), func() {
					f := ethernet.Frame{ID: p.ID, Bytes: e.Size}
					ok := topo.Inject(src, dst, f, func(fr ethernet.Frame) {
						recvs[dst].Submit(rxs[dst].RX(p).Total(), func() {
							hist.Observe(eng.Now() - born)
							delivered++
							wireBusy += link.SerializeTime(e.Size)
						})
						if pacer != nil && fr.ECN {
							topo.EchoMark(src, pacer.OnMark)
						}
					})
					if !ok {
						dropped++
					}
				})
			})
		}
		arm(0)
	}

	eng.Run()
	if err := eng.Err(); err != nil {
		return RackRow{}, err
	}

	fstats := topo.Stats()
	dropped += int(fstats.Dropped + fstats.OutageDrops + fstats.BurstDrops)
	rxMax := 0
	for _, r := range recvs {
		if r.maxDepth > rxMax {
			rxMax = r.maxDepth
		}
	}
	util := 0.0
	if eng.Now() > 0 {
		util = float64(wireBusy) / (float64(eng.Now()) * float64(shape.hosts))
	}
	deliveredC.Add(int64(delivered))
	droppedC.Add(int64(dropped))
	markedC.Add(int64(fstats.Marked))
	reg.Gauge(arch + ".leaf_max_depth").Set(int64(fstats.LeafMaxDepth))
	reg.Gauge(arch + ".spine_max_depth").Set(int64(fstats.SpineMaxDepth))
	reg.Gauge(arch + ".rx_max_depth").Set(int64(rxMax))
	reg.Gauge(arch + ".link_util_pct").Set(int64(math.Round(util * 100)))

	return RackRow{
		Arch:            arch,
		Racks:           topo.Leaves(),
		ECN:             ecn,
		Load:            load,
		Mean:            hist.Mean(),
		P50:             hist.Percentile(50),
		P99:             hist.Percentile(99),
		P999:            hist.Percentile(99.9),
		Delivered:       delivered,
		Dropped:         dropped,
		Marked:          int(fstats.Marked),
		CrossRack:       crossRack,
		LeafMaxDepth:    fstats.LeafMaxDepth,
		SpineMaxDepth:   fstats.SpineMaxDepth,
		RxMaxDepth:      rxMax,
		LinkUtilization: util,
		Hist:            &hist,
	}, nil
}

// rackEndpoints builds one TX and one RX machine per host for the given
// architecture (every host both sends and receives in the rack sweep).
func rackEndpoints(d *spec.Derived, arch string, hosts int, seed uint64) ([]driver.Machine, []driver.Machine, error) {
	txs := make([]driver.Machine, hosts)
	rxs := make([]driver.Machine, hosts)
	switch arch {
	case "dNIC":
		for h := range txs {
			txs[h], rxs[h] = d.NewDNIC(false), d.NewDNIC(false)
		}
	case "iNIC":
		for h := range txs {
			txs[h], rxs[h] = d.NewINIC(false), d.NewINIC(false)
		}
	case "NetDIMM":
		for h := range txs {
			nd, err := d.NewNetDIMM(seed + 2*uint64(h) + 1)
			if err != nil {
				return nil, nil, err
			}
			txs[h] = nd
			nd, err = d.NewNetDIMM(seed + 2*uint64(h) + 2)
			if err != nil {
				return nil, nil, err
			}
			rxs[h] = nd
		}
	default:
		return nil, nil, fmt.Errorf("unknown architecture %q", arch)
	}
	return txs, rxs, nil
}
