package main

import (
	"fmt"
	"time"

	"netdimm"
	"netdimm/internal/collective"
	"netdimm/internal/driver"
	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// The replicas re-run each workload's cells through a copy of the cell
// code in internal/experiments, built only from the layers' public
// constructors, with every call into a layer wrapped in a span. They copy
// the single-engine path of the rack, load, Fig. 12a and collective sweeps
// for the configurations the pinned workloads use (no fault injection, no
// sharding, observability off); fidelity is checked by comparing their
// rows with the facade's, field for field.

// archs is the sweeps' architecture axis, in output order.
var archs = []string{"dNIC", "iNIC", "NetDIMM"}

// Event budgets and buffer defaults of the mirrored sweeps.
const (
	loadEventBudget = 4_000_000
	rackEventBudget = 8_000_000
	collEventBudget = 8_000_000
	loadPortBuffer  = 64
	collPortBuffer  = 256
	minFrameBytes   = 64
)

// paperSwitchLatencies is Fig. 12a's switch-latency axis.
var paperSwitchLatencies = []sim.Time{25 * sim.Nanosecond, 50 * sim.Nanosecond, 100 * sim.Nanosecond, 200 * sim.Nanosecond}

// dur converts a simulated time the way the facade does.
func dur(t sim.Time) time.Duration { return time.Duration(int64(t) / int64(sim.Nanosecond)) }

// serialServer is the sweeps' FIFO single-server driver queue: one driver
// core draining jobs one at a time. Each service completion runs under a
// cell.serve span.
type serialServer struct {
	tr       *tracer
	eng      *sim.Engine
	queue    []serialJob
	busy     bool
	maxDepth int
}

type serialJob struct {
	service sim.Time
	done    func()
}

func (s *serialServer) sample() {
	d := len(s.queue)
	if s.busy {
		d++
	}
	if d > s.maxDepth {
		s.maxDepth = d
	}
}

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
		s.tr.begin(s.tr.id("cell.serve"))
		job.done()
		s.serveNext()
		s.tr.end()
	})
}

// newMachine builds one endpoint of arch under a driver.new span; ndSeed
// is the NetDIMM device seed.
func newMachine(tr *tracer, d *spec.Derived, arch string, ndSeed uint64) (driver.Machine, error) {
	tr.begin(tr.id("driver.new." + arch))
	defer tr.end()
	switch arch {
	case "dNIC":
		return d.NewDNIC(false), nil
	case "iNIC":
		return d.NewINIC(false), nil
	case "NetDIMM":
		nd, err := d.NewNetDIMM(ndSeed)
		if err != nil {
			return nil, err
		}
		return nd, nil
	}
	return nil, fmt.Errorf("unknown architecture %q", arch)
}

// pairEndpoints builds one TX and one RX machine per host, the way the
// rack and collective sweeps do.
func pairEndpoints(tr *tracer, d *spec.Derived, arch string, hosts int, seed uint64) (txs, rxs []driver.Machine, err error) {
	txs = make([]driver.Machine, hosts)
	rxs = make([]driver.Machine, hosts)
	for h := range txs {
		if txs[h], err = newMachine(tr, d, arch, seed+2*uint64(h)+1); err != nil {
			return nil, nil, err
		}
		if rxs[h], err = newMachine(tr, d, arch, seed+2*uint64(h)+2); err != nil {
			return nil, nil, err
		}
	}
	return txs, rxs, nil
}

func derive(tr *tracer, sp spec.Spec) *spec.Derived {
	tr.begin(tr.id("spec.derive"))
	defer tr.end()
	return sp.MustDerive()
}

// newCellEngine builds a cell's engine with the sweep's event budget and a
// pending-depth probe.
func newCellEngine(budget uint64) (*sim.Engine, *pendingProbe) {
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: budget})
	probe := &pendingProbe{eng: eng}
	eng.SetProbe(probe)
	return eng, probe
}

// openLoopCell is one open-loop fabric cell: a rack-sweep cell (every host
// sends and receives, destinations from the cluster's locality mix) or,
// with incast set, a load-sweep cell (every host sends to one extra
// receiver host).
type openLoopCell struct {
	sp      spec.Spec
	arch    string
	load    float64
	hosts   int
	packets int
	seed    uint64
	incast  bool
}

// openLoopRow holds the union of the rack and load sweeps' row fields.
type openLoopRow struct {
	mean, p50, p99, p999     sim.Time
	delivered, dropped       int
	marked, crossRack        int
	leafMax, spineMax, rxMax int
	egressMax                int
	egressDelay              sim.Time
	racks                    int
	ecn                      bool
	util                     float64
}

func (c openLoopCell) run(tr *tracer) (openLoopRow, error) {
	var (
		txID      = tr.id("driver.tx." + c.arch)
		rxID      = tr.id("driver.rx." + c.arch)
		nextID    = tr.id("workload.next")
		destID    = tr.id("workload.dest")
		arrivalID = tr.id("cell.arrival")
		deliverID = tr.id("cell.deliver")
		injectID  = tr.id("fabric.inject")
		routeID   = tr.id("fabric.route")
		pacerID   = tr.id("fabric.pacer")
		observeID = tr.id("stats.observe")
	)
	d := derive(tr, c.sp)
	budget := uint64(rackEventBudget)
	if c.incast {
		budget = loadEventBudget
	}
	eng, probe := newCellEngine(budget)
	link := d.Link

	// Endpoints. A load-sweep cell has one receiver, after all senders.
	var txs, rxs []driver.Machine
	var err error
	if c.incast {
		txs = make([]driver.Machine, c.hosts)
		for h := range txs {
			if txs[h], err = newMachine(tr, d, c.arch, c.seed+2*uint64(h)+1); err != nil {
				return openLoopRow{}, err
			}
		}
		rx, err := newMachine(tr, d, c.arch, c.seed+2*uint64(c.hosts)+2)
		if err != nil {
			return openLoopRow{}, err
		}
		rxs = []driver.Machine{rx}
	} else if txs, rxs, err = pairEndpoints(tr, d, c.arch, c.hosts, c.seed); err != nil {
		return openLoopRow{}, err
	}

	tr.begin(tr.id("workload.new"))
	cluster, err := workload.ParseCluster(c.sp.Load.Cluster)
	if err != nil {
		tr.end()
		return openLoopRow{}, err
	}
	process, err := workload.ParseProcess(c.sp.Load.Process)
	if err != nil {
		tr.end()
		return openLoopRow{}, err
	}
	// A rack-sweep host offers load of its own line rate; load-sweep hosts
	// share the receiver's.
	sources := 1
	if c.incast {
		sources = c.hosts
	}
	perHostGap, err := cluster.MeanGapForLoad(c.load, sources, link.BitsPerSec/1e9)
	tr.end()
	if err != nil {
		return openLoopRow{}, err
	}

	portBuffer := c.sp.Load.PortBuffer
	if portBuffer == 0 {
		portBuffer = loadPortBuffer
	}
	endpoints := c.hosts
	if c.incast {
		endpoints++
	}
	tr.begin(tr.id("fabric.new"))
	topo := d.NewTopology(fabric.SingleEngine(eng), endpoints, portBuffer)
	tr.end()
	ecn := topo.Spec().ECNThreshold > 0

	recvs := make([]*serialServer, len(rxs))
	for i := range recvs {
		recvs[i] = &serialServer{tr: tr, eng: eng}
	}
	var (
		hist             stats.Histogram
		delivered, drops int
		crossRack        int
		wireBusy         sim.Time
	)
	for h := 0; h < c.hosts; h++ {
		count := c.packets / c.hosts
		if h < c.packets%c.hosts {
			count++
		}
		if count == 0 {
			continue
		}
		tr.begin(tr.id("workload.new"))
		gen := workload.NewOpenLoop(cluster, process, perHostGap, c.seed+uint64(h)*0x9e3779b97f4a7c15)
		tr.end()
		var destR *sim.Rand
		if !c.incast {
			destR = sim.NewRand(c.seed ^ 0x5eed0fde57 + uint64(h)*0x9e3779b97f4a7c15)
		}
		txSrv := &serialServer{tr: tr, eng: eng}
		tx := txs[h]
		src := h
		host := uint64(h)
		var mark func()
		if ecn {
			pacer := &fabric.Pacer{Backoff: topo.Spec().ECNBackoff(),
				Stall: func(d sim.Time, done func()) { txSrv.Submit(d, done) }}
			mark = func() {
				tr.begin(pacerID)
				pacer.OnMark()
				tr.end()
			}
		}

		var arm func(i int)
		arm = func(i int) {
			if i >= count {
				return
			}
			tr.begin(nextID)
			e := gen.Next()
			tr.end()
			eng.At(e.At, func() {
				tr.begin(arrivalID)
				arm(i + 1)
				p := e.Packet(host<<32 | uint64(i))
				dst, rx, rsrv := endpoints-1, rxs[0], recvs[0]
				if !c.incast {
					tr.begin(destID)
					dst = workload.SampleDest(destR, e.Locality, src, c.hosts, topo.Leaves())
					tr.end()
					rx, rsrv = rxs[dst], recvs[dst]
					tr.begin(routeID)
					if topo.CrossesSpine(src, dst) {
						crossRack++
					}
					tr.end()
				}
				born := eng.Now()
				txSrv.Submit(tr.driverCall(txID, tx, p, false).Total(), func() {
					f := ethernet.Frame{ID: p.ID, Bytes: e.Size}
					tr.begin(injectID)
					ok := topo.Inject(src, dst, f, func(fr ethernet.Frame) {
						tr.begin(deliverID)
						rsrv.Submit(tr.driverCall(rxID, rx, p, true).Total(), func() {
							tr.begin(observeID)
							hist.Observe(eng.Now() - born)
							tr.end()
							delivered++
							wireBusy += link.SerializeTime(e.Size)
						})
						if mark != nil && fr.ECN {
							topo.EchoMark(src, mark)
						}
						tr.end()
					})
					tr.end()
					if !ok {
						drops++
					}
				})
				tr.end()
			})
		}
		arm(0)
	}

	if err := tr.runEngine(eng); err != nil {
		return openLoopRow{}, err
	}

	fstats := topo.Stats()
	row := openLoopRow{
		delivered: delivered,
		dropped:   int(fstats.Dropped+fstats.OutageDrops+fstats.BurstDrops) + drops,
		marked:    int(fstats.Marked),
		crossRack: crossRack,
		leafMax:   fstats.LeafMaxDepth,
		spineMax:  fstats.SpineMaxDepth,
		racks:     topo.Leaves(),
		ecn:       ecn,
	}
	hops := fstats.Forwarded
	for h := 0; h < endpoints; h++ {
		hops += topo.Uplink(h).Stats().Forwarded
	}
	for _, r := range recvs {
		if r.maxDepth > row.rxMax {
			row.rxMax = r.maxDepth
		}
	}
	if now := eng.Now(); now > 0 {
		row.util = float64(wireBusy) / float64(now)
		if !c.incast {
			row.util = float64(wireBusy) / (float64(now) * float64(c.hosts))
		}
	}
	if c.incast {
		eg := topo.Downlink(c.hosts).Stats()
		row.egressMax, row.egressDelay = eg.MaxDepth, eg.AvgQueueDelay()
	}
	tr.begin(tr.id("stats.percentile"))
	row.mean, row.p50, row.p99, row.p999 = hist.Mean(), hist.Percentile(50), hist.Percentile(99), hist.Percentile(99.9)
	tr.end()

	for _, rx := range rxs {
		tr.receiverAllocs(rx)
	}
	tr.injected += uint64(c.packets)
	tr.dropped += uint64(row.dropped)
	tr.recordEngine(eng, probe, hops)
	return row, nil
}

// rackSpines is the rack sweep's spine count for a spec that leaves it
// unset: one spine per eight hosts in a rack, at least two.
func rackSpines(hosts, racks int) int {
	perLeaf := (hosts + racks - 1) / racks
	s := (perLeaf + 7) / 8
	if s < 2 {
		s = 2
	}
	return s
}

func (s rackSize) replica(seed uint64, tr *tracer) ([]string, error) {
	sp := spec.Spec(s.config())
	ecnThreshold := sp.Fabric.ECNThreshold
	if ecnThreshold == 0 {
		ecnThreshold = fabric.DefaultECNThreshold
	}
	var rows []string
	for _, arch := range archs {
		for _, rk := range s.racks {
			for _, ecn := range []bool{false, true} {
				for _, load := range s.loads {
					cell := sp
					cell.Fabric.Leaves = rk
					if cell.Fabric.Spines == 0 {
						cell.Fabric.Spines = rackSpines(s.hosts, rk)
					}
					if ecn {
						cell.Fabric.ECNThreshold = ecnThreshold
					} else {
						cell.Fabric.ECNThreshold = 0
						cell.Fabric.ECNBackoffNs = 0
					}
					r, err := openLoopCell{sp: cell, arch: arch, load: load, hosts: s.hosts, packets: s.packets, seed: seed}.run(tr)
					if err != nil {
						return nil, fmt.Errorf("rack %s racks=%d ecn=%v load=%g: %w", arch, rk, ecn, load, err)
					}
					rows = append(rows, canon(netdimm.RackSweepResult{
						Arch: arch, Racks: r.racks, ECN: r.ecn, OfferedLoad: load,
						Mean: dur(r.mean), P50: dur(r.p50), P99: dur(r.p99), P999: dur(r.p999),
						Delivered: r.delivered, Dropped: r.dropped, Marked: r.marked, CrossRack: r.crossRack,
						LeafMaxDepth: r.leafMax, SpineMaxDepth: r.spineMax, RxMaxDepth: r.rxMax,
						LinkUtilization: r.util,
					}))
				}
			}
		}
	}
	return rows, nil
}

func (s incastSize) replica(seed uint64, tr *tracer) ([]string, error) {
	sp := spec.Spec(s.config())
	var rows []string
	for _, arch := range archs {
		for _, load := range s.loads {
			r, err := openLoopCell{sp: sp, arch: arch, load: load, hosts: s.hosts, packets: s.packets, seed: seed, incast: true}.run(tr)
			if err != nil {
				return nil, fmt.Errorf("incast %s load=%g: %w", arch, load, err)
			}
			rows = append(rows, canon(netdimm.LoadSweepResult{
				Arch: arch, OfferedLoad: load,
				Mean: dur(r.mean), P50: dur(r.p50), P99: dur(r.p99), P999: dur(r.p999),
				Delivered: r.delivered, Dropped: r.dropped,
				EgressMaxDepth: r.egressMax, EgressQueueDelay: dur(r.egressDelay),
				RxMaxDepth: r.rxMax, LinkUtilization: r.util,
			}))
		}
	}
	return rows, nil
}

func (s latencySize) replica(seed uint64, tr *tracer) ([]string, error) {
	sp := spec.Spec(netdimm.DefaultConfig())
	var rows []string
	for sd := seed; sd < seed+uint64(s.seeds); sd++ {
		for _, cl := range workload.Clusters {
			for _, sl := range paperSwitchLatencies {
				means, err := fig12aCell(tr, sp, cl, sl, s.packets, sd)
				if err != nil {
					return nil, fmt.Errorf("latency seed %d %s switch=%v: %w", sd, cl, sl, err)
				}
				r := netdimm.Fig12aResult{
					Cluster: netdimm.ClusterName(cl.String()), SwitchLatency: dur(sl),
					DNICMean: dur(means[0]), INICMean: dur(means[1]), NetDIMMMean: dur(means[2]),
				}
				if means[0] != 0 {
					r.NormVsDNIC = float64(means[2]) / float64(means[0])
				}
				if means[1] != 0 {
					r.NormVsINIC = float64(means[2]) / float64(means[1])
				}
				rows = append(rows, canon(r))
			}
		}
	}
	return rows, nil
}

// fig12aCell replays n packets of one cluster's trace over the analytic
// clos at switch latency sl and returns the mean one-way latency of dNIC,
// iNIC and NetDIMM, in that order.
func fig12aCell(tr *tracer, sp spec.Spec, cl workload.Cluster, sl sim.Time, n int, seed uint64) ([3]sim.Time, error) {
	d := derive(tr, sp)
	tr.begin(tr.id("fabric.new"))
	f := d.Fabric(sl)
	f.Switch.CutThrough = false
	tr.end()

	tr.begin(tr.id("workload.generate"))
	events := workload.NewGenerator(cl, 0, seed).Generate(n)
	tr.end()
	tr.generated += n

	// Endpoints in the facade's construction order: NetDIMM TX and RX, then
	// the two NICs, each of which both sends and receives.
	var m [4]driver.Machine
	for i, a := range []struct {
		arch string
		seed uint64
	}{{"NetDIMM", seed*2 + 1}, {"NetDIMM", seed*2 + 2}, {"dNIC", 0}, {"iNIC", 0}} {
		var err error
		if m[i], err = newMachine(tr, d, a.arch, a.seed); err != nil {
			return [3]sim.Time{}, err
		}
	}
	pairs := [3][2]driver.Machine{{m[2], m[2]}, {m[3], m[3]}, {m[0], m[1]}}
	var txIDs, rxIDs [3]spanID
	for i, arch := range archs {
		txIDs[i], rxIDs[i] = tr.id("driver.tx."+arch), tr.id("driver.rx."+arch)
	}
	wireID, sumID := tr.id("fabric.wire"), tr.id("stats.breakdown")

	var sums [3]sim.Time
	for i, e := range events {
		p := e.Packet(uint64(i))
		tr.begin(wireID)
		wire := f.WireTime(e.Size, e.Locality)
		tr.end()
		for a, pair := range pairs {
			txB := tr.driverCall(txIDs[a], pair[0], p, false)
			rxB := tr.driverCall(rxIDs[a], pair[1], p, true)
			tr.begin(sumID)
			txB.Add(stats.Wire, wire)
			sums[a] += txB.Plus(rxB).Total()
			tr.end()
		}
	}
	tr.receiverAllocs(m[1])
	tr.endCell()
	cnt := sim.Time(len(events))
	return [3]sim.Time{sums[0] / cnt, sums[1] / cnt, sums[2] / cnt}, nil
}

func (s collSize) replica(seed uint64, tr *tracer) ([]string, error) {
	sp := spec.Spec(collConfig(s.payload))
	var rows []string
	for _, arch := range archs {
		for _, rk := range s.ranks {
			r, err := collCell(tr, sp, arch, rk, seed)
			if err != nil {
				return nil, fmt.Errorf("allreduce %s ranks=%d: %w", arch, rk, err)
			}
			rows = append(rows, canon(r))
		}
	}
	return rows, nil
}

// collCell runs one ring allreduce over ranks fabric hosts: each step
// message is split into MTU frames that pay the TX driver, the fabric and
// the RX driver, and the message's delivery rides the echo path back to
// the receiving rank.
func collCell(tr *tracer, sp spec.Spec, arch string, ranks int, seed uint64) (netdimm.CollSweepResult, error) {
	var (
		txID      = tr.id("driver.tx." + arch)
		rxID      = tr.id("driver.rx." + arch)
		sendID    = tr.id("cell.send")
		injectID  = tr.id("fabric.inject")
		deliverID = tr.id("cell.deliver")
		collDelID = tr.id("collective.deliver")
		launchID  = tr.id("collective.launch")
	)
	d := derive(tr, sp)
	eng, probe := newCellEngine(collEventBudget)
	link := d.Link
	payload := sp.Collective.PayloadBytes
	if payload == 0 {
		payload = collective.DefaultPayloadBytes
	}
	chunk := sp.Collective.ChunkBytes
	if chunk == 0 {
		chunk = nic.MTU
	}
	portBuffer := sp.Load.PortBuffer
	if portBuffer == 0 {
		portBuffer = collPortBuffer
	}

	txs, rxs, err := pairEndpoints(tr, d, arch, ranks, seed)
	if err != nil {
		return netdimm.CollSweepResult{}, err
	}
	tr.begin(tr.id("fabric.new"))
	topo := d.NewTopology(fabric.SingleEngine(eng), ranks, portBuffer)
	tr.end()

	tr.begin(tr.id("sim.rand"))
	elems := payload / 8
	if elems < 1 {
		elems = 1
	}
	before := make([][]int64, ranks)
	data := make([][]int64, ranks)
	for r := range data {
		rng := sim.NewRand(seed ^ 0xc0_11ec_71fe + uint64(r)*0x9e3779b97f4a7c15)
		before[r] = make([]int64, elems)
		for i := range before[r] {
			before[r][i] = rng.Int63n(1 << 40)
		}
		data[r] = append([]int64(nil), before[r]...)
	}
	tr.end()

	txSrvs := make([]*serialServer, ranks)
	rxSrvs := make([]*serialServer, ranks)
	for r := range txSrvs {
		txSrvs[r] = &serialServer{tr: tr, eng: eng}
		rxSrvs[r] = &serialServer{tr: tr, eng: eng}
	}
	seqs := make([]int, ranks)
	drops, frames, messages := 0, 0, 0
	var bytesOnWire int64
	var wireBusy sim.Time

	send := func(src, dst, step, bytes int, deliver func()) {
		tr.begin(sendID)
		tx, rxSrv := txs[src], rxSrvs[dst]
		nf := (bytes + chunk - 1) / chunk
		if nf < 1 {
			nf = 1
		}
		seq := seqs[src]
		seqs[src]++
		remaining := nf
		for f := 0; f < nf; f++ {
			sz := bytes / nf
			if f < bytes%nf {
				sz++
			}
			if sz < minFrameBytes {
				sz = minFrameBytes
			}
			p := nic.Packet{ID: uint64(src)<<40 | uint64(seq)<<20 | uint64(f), Size: sz, Born: eng.Now()}
			txSrvs[src].Submit(tr.driverCall(txID, tx, p, false).Total(), func() {
				tr.begin(injectID)
				ok := topo.Inject(src, dst, ethernet.Frame{ID: p.ID, Bytes: p.Size}, func(fr ethernet.Frame) {
					tr.begin(deliverID)
					rxSrv.Submit(tr.driverCall(rxID, rxs[dst], p, true).Total(), func() {
						frames++
						bytesOnWire += int64(p.Size + nic.EthernetOverheadBytes)
						wireBusy += link.SerializeTime(p.Size)
						remaining--
						if remaining == 0 {
							messages++
							topo.EchoMark(dst, func() {
								tr.begin(collDelID)
								deliver()
								tr.end()
							})
						}
					})
					tr.end()
				})
				tr.end()
				if !ok {
					drops++
				}
			})
		}
		tr.end()
	}

	tr.begin(tr.id("collective.plan"))
	plan := collective.NewPlan(collective.AllReduce, ranks)
	exec := collective.NewExec(plan, data, send, func(int) sim.Time { return eng.Now() })
	tr.end()
	for r := 0; r < ranks; r++ {
		r := r
		eng.At(0, func() {
			tr.begin(launchID)
			exec.Launch(r)
			tr.end()
		})
	}
	if err := tr.runEngine(eng); err != nil {
		return netdimm.CollSweepResult{}, err
	}

	fstats := topo.Stats()
	dropped := int(fstats.Dropped+fstats.OutageDrops+fstats.BurstDrops) + drops
	if exec.DoneRanks() != ranks {
		return netdimm.CollSweepResult{}, fmt.Errorf("collective stalled: %d/%d ranks finished with %d dropped frames", exec.DoneRanks(), ranks, dropped)
	}
	tr.begin(tr.id("collective.verify"))
	err = collective.Verify(collective.AllReduce, before, data)
	completion, skew := exec.Completion(), exec.StepSkew()
	tr.end()
	if err != nil {
		return netdimm.CollSweepResult{}, err
	}
	util := 0.0
	if now := eng.Now(); now > 0 {
		util = float64(wireBusy) / (float64(now) * float64(ranks))
	}
	hops := fstats.Forwarded
	for h := 0; h < ranks; h++ {
		hops += topo.Uplink(h).Stats().Forwarded
	}
	for _, rx := range rxs {
		tr.receiverAllocs(rx)
	}
	tr.injected += uint64(frames + dropped)
	tr.dropped += uint64(dropped)
	tr.recordEngine(eng, probe, hops)
	return netdimm.CollSweepResult{
		Arch: arch, Op: collective.AllReduce.String(), Ranks: ranks, PayloadBytes: payload,
		Steps: plan.MaxSteps(), Completion: dur(completion), StepSkew: dur(skew),
		BytesOnWire: bytesOnWire, Frames: frames, Delivered: messages, Dropped: dropped,
		Marked: int(fstats.Marked), LinkUtilization: util,
	}, nil
}
