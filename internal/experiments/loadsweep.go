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

// LoadSweepArchs are the architectures compared by the load sweep, in
// output order.
var LoadSweepArchs = []string{"dNIC", "iNIC", "NetDIMM"}

// DefaultLoadGrid is the default offered-load axis, as fractions of the
// receiver's line rate. It brackets every architecture's knee on the
// default (Table 1, database-cluster) scenario.
var DefaultLoadGrid = []float64{0.02, 0.05, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.22}

// LoadSweepConfig parameterises one load sweep; traffic shape and fabric
// buffering come from the specification's Load block.
type LoadSweepConfig struct {
	// Packets is the total arrival count per cell, split across the
	// sender hosts (default 2000 — enough for a stable p99 and a defined
	// p999).
	Packets int
	// EventBudget bounds each cell's engine via the watchdog (default
	// 4,000,000).
	EventBudget uint64
	// Seed perturbs every host's arrival stream.
	Seed uint64
}

// DefaultLoadSweepConfig returns the sweep defaults.
func DefaultLoadSweepConfig() LoadSweepConfig {
	return LoadSweepConfig{Packets: 2000, EventBudget: 4_000_000}
}

func (c LoadSweepConfig) withDefaults() LoadSweepConfig {
	def := DefaultLoadSweepConfig()
	if c.Packets <= 0 {
		c.Packets = def.Packets
	}
	if c.EventBudget == 0 {
		c.EventBudget = def.EventBudget
	}
	return c
}

// loadShape is the resolved Load block of a specification.
type loadShape struct {
	hosts      int
	cluster    workload.Cluster
	process    workload.ArrivalProcess
	portBuffer int
	kneeFactor float64
}

// resolveLoad applies the sweep defaults to a validated Load block.
func resolveLoad(l workload.LoadSpec) (loadShape, error) {
	if err := l.Validate(); err != nil {
		return loadShape{}, err
	}
	cl, _ := workload.ParseCluster(l.Cluster)
	proc, _ := workload.ParseProcess(l.Process)
	sh := loadShape{hosts: l.Hosts, cluster: cl, process: proc,
		portBuffer: l.PortBuffer, kneeFactor: l.KneeFactor}
	if sh.hosts == 0 {
		sh.hosts = 8
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

// DetectKnees reduces sweep rows to one saturation knee per architecture.
// Rows must carry at least one load per architecture; loads are evaluated
// in ascending order and the lowest load is the tail baseline.
func DetectKnees(rows []LoadRow, kneeFactor float64) []LoadKnee {
	if kneeFactor <= 0 {
		kneeFactor = 3
	}
	byArch := make(map[string][]LoadRow)
	for _, r := range rows {
		byArch[r.Arch] = append(byArch[r.Arch], r)
	}
	var knees []LoadKnee
	for _, arch := range LoadSweepArchs {
		rs := byArch[arch]
		if len(rs) == 0 {
			continue
		}
		// Rows arrive in sweep order (ascending load per architecture);
		// keep order-insensitivity for callers that re-sorted.
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0 && rs[j-1].Load > rs[j].Load; j-- {
				rs[j-1], rs[j] = rs[j], rs[j-1]
			}
		}
		base := rs[0].P99
		knee := LoadKnee{Arch: arch}
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

// LoadSweep runs the rack-scale open-loop load sweep: for every
// (architecture, offered load) cell it simulates loads[i] of the line rate
// fanning in from the spec's Load.Hosts senders to one receiver and
// reports the end-to-end latency distribution, then reduces the rows to
// one saturation knee per architecture. A nil loads slice uses
// DefaultLoadGrid.
//
// Cells are deterministic: each builds its own engine, machines and
// arrival streams from per-cell seeds, so results are identical
// sequentially and in parallel. Along one architecture's load axis the
// packet sequence is held fixed (only the arrival spacing scales), so the
// latency curve isolates queueing.
func LoadSweep(sp spec.Spec, loads []float64, cfg LoadSweepConfig, parallelism int) ([]LoadRow, []LoadKnee, error) {
	rows, knees, _, err := LoadSweepObserved(sp, loads, cfg, parallelism, obs.Spec{})
	return rows, knees, err
}

// LoadSweepObserved is LoadSweep with the observability plane: when ospec
// enables collection, each (arch, load) cell gets a Cell labelled
// "loadsweep/<arch>/load=<load>" with receiver queue-depth and egress
// depth series, delivery/drop counters, link utilisation and engine
// probes. A zero ospec yields a nil observer and the exact LoadSweep
// behaviour.
func LoadSweepObserved(sp spec.Spec, loads []float64, cfg LoadSweepConfig, parallelism int, ospec obs.Spec) ([]LoadRow, []LoadKnee, *obs.Observer, error) {
	cfg = cfg.withDefaults()
	if len(loads) == 0 {
		loads = DefaultLoadGrid
	}
	for _, l := range loads {
		if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return nil, nil, nil, fmt.Errorf("loadsweep: offered load must be positive and finite, got %g", l)
		}
	}
	shape, err := resolveLoad(sp.Load)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loadsweep: %w", err)
	}
	n := len(LoadSweepArchs) * len(loads)
	var o *obs.Observer
	if ospec.Enabled() {
		labels := make([]string, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("loadsweep/%s/load=%g",
				LoadSweepArchs[i/len(loads)], loads[i%len(loads)])
		}
		o = obs.New(ospec, labels...)
	}
	rows := make([]LoadRow, n)
	errs := make([]error, n)
	forEachCell(n, parallelism, func(i int) {
		arch := LoadSweepArchs[i/len(loads)]
		load := loads[i%len(loads)]
		row, err := loadCell(sp, arch, load, shape, cfg, o.Cell(i))
		if err != nil {
			errs[i] = fmt.Errorf("loadsweep: %s at load %g: %w", arch, load, err)
			return
		}
		rows[i] = row
	})
	if err := firstError(errs); err != nil {
		return nil, nil, nil, err
	}
	return rows, DetectKnees(rows, shape.kneeFactor), o, nil
}

// serialServer is a FIFO single-server queue on the cell's engine — the
// model of one driver core draining packets one at a time. It is where
// load above the stage's capacity turns into waiting time.
type serialServer struct {
	eng      *sim.Engine
	queue    []serialJob
	busy     bool
	maxDepth int
	// onDepth, when set, samples the queue depth after every change.
	onDepth func(at sim.Time, depth int)
}

type serialJob struct {
	service sim.Time
	done    func()
}

// Depth returns queued jobs including the one in service.
func (s *serialServer) Depth() int {
	n := len(s.queue)
	if s.busy {
		n++
	}
	return n
}

func (s *serialServer) sample() {
	if d := s.Depth(); d > s.maxDepth {
		s.maxDepth = d
	}
	if s.onDepth != nil {
		s.onDepth(s.eng.Now(), s.Depth())
	}
}

// Submit enqueues one job; done fires when its service completes.
func (s *serialServer) Submit(service sim.Time, done func()) {
	s.queue = append(s.queue, serialJob{service: service, done: done})
	s.sample()
	if !s.busy {
		s.serveNext()
	}
}

func (s *serialServer) serveNext() {
	if len(s.queue) == 0 {
		s.busy = false
		s.sample()
		return
	}
	s.busy = true
	job := s.queue[0]
	s.queue = s.queue[1:]
	s.eng.Schedule(job.service, func() {
		job.done()
		s.serveNext()
	})
}

// shareCount splits `total` work items over `parts` workers: worker i gets
// the base share plus one of the remainder's leftovers.
func shareCount(total, parts, i int) int {
	count := total / parts
	if i < total%parts {
		count++
	}
	return count
}

// loadCell runs one (arch, load) cell on one engine: shape.hosts open-loop
// senders into one receiver across the specification's fabric (the zero
// Fabric block resolves to one leaf and no spines — exactly the original
// single-switch incast, so the pinned goldens are unchanged).
//
// When the Fabric block arms ECN, marked deliveries echo back to their
// sender with one switch latency and pace its TX driver through a
// fabric.Pacer; switch-port fault injection (Fault.PortDropProb) applies
// at every fabric hop.
func loadCell(sp spec.Spec, arch string, load float64, shape loadShape, cfg LoadSweepConfig, oc *obs.Cell) (LoadRow, error) {
	d := sp.MustDerive()
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: cfg.EventBudget})
	link := d.Link

	txs, rx, err := loadEndpoints(d, arch, shape.hosts, cfg.Seed)
	if err != nil {
		return LoadRow{}, err
	}

	perHostGap, err := shape.cluster.MeanGapForLoad(load, shape.hosts, link.BitsPerSec/1e9)
	if err != nil {
		return LoadRow{}, err
	}

	reg := oc.Metrics()
	recv := &serialServer{eng: eng}
	if s := reg.Series(arch + ".rx_queue_depth"); s != nil {
		recv.onDepth = func(at sim.Time, depth int) { s.Sample(at, int64(depth)) }
	}
	egress := reg.Series(arch + ".egress_depth")
	deliveredC := reg.Counter(arch + ".delivered")
	droppedC := reg.Counter(arch + ".dropped")
	obs.NewEngineProbe(reg, arch+".engine").Attach(eng)

	// The receiver is the fabric's last endpoint; every sender's traffic
	// funnels into its downlink (the incast bottleneck on the wire side).
	rcv := shape.hosts
	topo := d.NewTopology(fabric.SingleEngine(eng), shape.hosts+1, shape.portBuffer)
	if d.Spec.Fault.PortDropProb > 0 {
		topo.InjectFaults(fault.NewInjector(d.Spec.Fault, cfg.Seed))
	}
	if _, err := topo.ArmFailures(d.Spec.Fault.Failure, cfg.Seed); err != nil {
		return LoadRow{}, err
	}
	egPort := topo.Downlink(rcv)
	if egress != nil {
		topo.OnUplinkDeliver = func(int, int) { egress.Sample(eng.Now(), int64(egPort.Depth())) }
	}
	ecn := topo.Spec().ECNThreshold > 0

	var hist stats.Histogram
	delivered, dropped := 0, 0
	var wireBusy sim.Time

	for h := 0; h < shape.hosts; h++ {
		count := shareCount(cfg.Packets, shape.hosts, h)
		if count == 0 {
			continue
		}
		// Per-host seeds are independent of the offered load, so the
		// packet sequence is identical along the load axis.
		gen := workload.NewOpenLoop(shape.cluster, shape.process, perHostGap,
			cfg.Seed+uint64(h)*0x9e3779b97f4a7c15)
		txSrv := &serialServer{eng: eng}
		tx := txs[h]
		src := h
		host := uint64(h)
		var pacer *fabric.Pacer
		if ecn {
			// A mark stalls the sender by occupying its TX driver for one
			// backoff — queued arrivals wait behind it.
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
				born := eng.Now()
				txSrv.Submit(tx.TX(p).Total(), func() {
					f := ethernet.Frame{ID: p.ID, Bytes: e.Size}
					ok := topo.Inject(src, rcv, f, func(fr ethernet.Frame) {
						recv.Submit(rx.RX(p).Total(), func() {
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
		return LoadRow{}, err
	}

	fstats := topo.Stats()
	egStats := egPort.Stats()
	dropped += int(fstats.Dropped + fstats.OutageDrops + fstats.BurstDrops)
	util := 0.0
	if eng.Now() > 0 {
		util = float64(wireBusy) / float64(eng.Now())
	}
	deliveredC.Add(int64(delivered))
	droppedC.Add(int64(dropped))
	reg.Gauge(arch + ".link_util_pct").Set(int64(math.Round(util * 100)))
	reg.Gauge(arch + ".egress_max_depth").Set(int64(egStats.MaxDepth))
	reg.Gauge(arch + ".rx_max_depth").Set(int64(recv.maxDepth))
	if ecn {
		reg.Gauge(arch + ".ecn_marked").Set(int64(fstats.Marked))
	}

	return LoadRow{
		Arch:             arch,
		Load:             load,
		Mean:             hist.Mean(),
		P50:              hist.Percentile(50),
		P99:              hist.Percentile(99),
		P999:             hist.Percentile(99.9),
		Delivered:        delivered,
		Dropped:          dropped,
		EgressMaxDepth:   egStats.MaxDepth,
		EgressQueueDelay: egStats.AvgQueueDelay(),
		RxMaxDepth:       recv.maxDepth,
		LinkUtilization:  util,
		Hist:             &hist,
	}, nil
}

// loadEndpoints builds one TX machine per sender host and the receiver's
// RX machine for the given architecture.
func loadEndpoints(d *spec.Derived, arch string, hosts int, seed uint64) ([]driver.Machine, driver.Machine, error) {
	txs := make([]driver.Machine, hosts)
	switch arch {
	case "dNIC":
		for h := range txs {
			txs[h] = d.NewDNIC(false)
		}
		return txs, d.NewDNIC(false), nil
	case "iNIC":
		for h := range txs {
			txs[h] = d.NewINIC(false)
		}
		return txs, d.NewINIC(false), nil
	case "NetDIMM":
		for h := range txs {
			nd, err := d.NewNetDIMM(seed + 2*uint64(h) + 1)
			if err != nil {
				return nil, nil, err
			}
			txs[h] = nd
		}
		ndRX, err := d.NewNetDIMM(seed + 2*uint64(hosts) + 2)
		if err != nil {
			return nil, nil, err
		}
		return txs, ndRX, nil
	default:
		return nil, nil, fmt.Errorf("unknown architecture %q", arch)
	}
}
