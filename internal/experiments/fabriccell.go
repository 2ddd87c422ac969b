package experiments

import (
	"fmt"

	"netdimm/internal/driver"
	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/fault"
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// The open-loop fabric cell behind the load, rack and failure sweeps: on
// one engine every sending host runs an open-loop arrival stream into its
// serial TX driver queue, each frame crosses the cell spec's fabric, and
// each delivered frame queues at its destination's serial RX driver. The
// families differ in three options: destination choice (cellOpts.incast),
// ECN echo (the cell spec's Fabric.ECNThreshold: a marked delivery stalls
// its sender through a fabric.Pacer) and the outage window with
// ack-timeout ARQ (cellOpts.outage). Each family's row and metrics are a
// projection of the finished cell.

// cellOpts parameterise one fabric cell.
type cellOpts struct {
	// load is the offered fraction of the receiver's line rate, shared by
	// every sender, in an incast cell, and of each host's own otherwise.
	load        float64
	packets     int
	eventBudget uint64
	seed        uint64
	// incast sends every host's traffic to one receiver, the extra
	// endpoint hosts; otherwise destinations ride per-host SampleDest
	// streams.
	incast bool
	// outage, when set, arms the swept spine outage and sends every packet
	// through an ack-timeout ARQ with duplicate suppression and
	// before/during/after latency histograms. An empty window is the
	// baseline.
	outage *outageWindow
}

// outageWindow is the swept spine outage [start, end).
type outageWindow struct {
	start, end sim.Time
	spine      int
}

func (w *outageWindow) holds(t sim.Time) bool { return t >= w.start && t < w.end }

// fabricCell is one cell: its wiring while it runs, then its tallies.
type fabricCell struct {
	arch   string
	hosts  int // sending hosts; an incast cell has one more endpoint
	incast bool
	eng    *sim.Engine
	topo   *fabric.Topology
	link   ethernet.Link
	reg    *obs.Registry
	recvs  []driverQueue // one per endpoint
	arq    *arqTally     // nil without cellOpts.outage
	// flights holds the transmissions crossing the fabric by slot, and a
	// frame carries its slot as its ID (ports and the topology never read
	// it); free lists landed slots. A frame dropped past its uplink never
	// calls back, so its slot is not reused.
	flights   []transmission
	free      []int
	deliverFn func(ethernet.Frame) // c.deliver, bound once

	hist                                          *stats.Histogram
	offered, delivered, dropped, crossRack, rxMax int
	wireBusy                                      sim.Time
	fstats                                        fabric.Stats
}

// arqTally is an ARQ cell's recovery state; seen and gaveUp are indexed
// by global packet number (host-major).
type arqTally struct {
	outageWindow
	ctrs                           stats.FaultCounters
	seen, gaveUp                   []bool
	failed, dups, recovered        int
	duringOffered, duringDelivered int
	recoverySum                    sim.Time
	before, during, after          stats.Histogram
}

// transmission is one transmitted copy of a packet.
type transmission struct {
	s       *cellSender
	p       nic.Packet
	dst, g  int
	born    sim.Time
	attempt int
	ack     func() // the ARQ acknowledgement; nil without ARQ
}

// driverQueue is a serial driver queue whose transmissions wait in q and
// complete in order through one handler bound once, so a warm queue
// allocates nothing per packet.
type driverQueue struct {
	serialServer
	c      *fabricCell
	m      driver.Machine
	q      sim.FIFO[transmission]
	doneFn func()
}

// cellSender is one host's open-loop source and TX driver queue.
type cellSender struct {
	driverQueue
	h, i, count, base int // base: global number of the host's first packet
	gen               *workload.OpenLoop
	destR             *sim.Rand // nil in an incast cell
	markFn            func()    // the pacer's OnMark, bound once; nil with ECN off
	rt                nic.Retransmitter
	next              workload.Event // the armed arrival
	arriveFn          func()
}

// runFabricCell builds, runs and checks one cell of shape.hosts senders.
func runFabricCell(sp spec.Spec, arch string, shape loadShape, opts cellOpts, oc *obs.Cell) (*fabricCell, error) {
	d := sp.MustDerive()
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: opts.eventBudget})
	n, sources := shape.hosts, 1
	if opts.incast {
		n, sources = shape.hosts+1, shape.hosts
	}
	txs, rxs, err := endpoints(d, arch, n, opts.incast, opts.seed)
	if err != nil {
		return nil, err
	}
	perHostGap, err := shape.cluster.MeanGapForLoad(opts.load, sources, d.Link.BitsPerSec/1e9)
	if err != nil {
		return nil, err
	}
	sched := sp.Fault.Failure
	if w := opts.outage; w != nil && w.end > w.start {
		sched.Outages = append(append([]fault.Outage(nil), sched.Outages...), fault.Outage{Kind: fault.OutageSpine,
			Index: w.spine, StartNs: int(w.start / sim.Nanosecond), EndNs: int(w.end / sim.Nanosecond)})
	}

	c := &fabricCell{arch: arch, hosts: shape.hosts, incast: opts.incast, eng: eng, link: d.Link,
		reg: oc.Metrics(), recvs: make([]driverQueue, n), hist: new(stats.Histogram)}
	c.deliverFn = c.deliver
	for i := range c.recvs {
		r := &c.recvs[i]
		r.eng, r.c, r.m = eng, c, rxs[i]
		r.doneFn = r.rxDone
	}
	obs.NewEngineProbe(c.reg, arch+".engine").Attach(eng)
	c.topo = d.NewTopology(fabric.SingleEngine(eng), n, shape.portBuffer)
	if d.Spec.Fault.PortDropProb > 0 {
		c.topo.InjectFaults(fault.NewInjector(d.Spec.Fault, opts.seed))
	}
	if _, err := c.topo.ArmFailures(sched, opts.seed); err != nil {
		return nil, err
	}
	if opts.incast {
		// The receiver's RX queue and its downlink — the incast
		// bottleneck on the wire side — are sampled with metrics on.
		if s := c.reg.Series(arch + ".rx_queue_depth"); s != nil {
			c.recvs[c.hosts].onDepth = func(at sim.Time, depth int) { s.Sample(at, int64(depth)) }
		}
		if s := c.reg.Series(arch + ".egress_depth"); s != nil {
			eg := c.topo.Downlink(c.hosts)
			c.topo.OnUplinkDeliver = func(int, int) { s.Sample(eng.Now(), int64(eg.Depth())) }
		}
	}
	if w := opts.outage; w != nil {
		c.arq = &arqTally{outageWindow: *w, seen: make([]bool, opts.packets), gaveUp: make([]bool, opts.packets)}
	}

	senders := make([]cellSender, shape.hosts)
	next := 0
	for h := range senders {
		s := &senders[h]
		s.c, s.h, s.base, s.count = c, h, next, shareCount(opts.packets, shape.hosts, h)
		next += s.count
		if s.count == 0 {
			continue
		}
		// Per-host seeds are independent of the offered load, so the
		// packet and destination sequences are identical along the load
		// axis; the destination stream is separate from the arrival stream
		// so the fabric shape cannot perturb the traffic.
		s.gen = workload.NewOpenLoop(shape.cluster, shape.process, perHostGap, opts.seed+uint64(h)*0x9e3779b97f4a7c15)
		if !opts.incast {
			s.destR = sim.NewRand(opts.seed ^ 0x5eed0fde57 + uint64(h)*0x9e3779b97f4a7c15)
		}
		s.eng, s.m = eng, txs[h]
		s.doneFn, s.arriveFn = s.txDone, s.arrive
		if c.topo.Spec().ECNThreshold > 0 {
			// A mark stalls the sender by occupying its TX driver for one
			// backoff — queued arrivals wait behind it.
			s.markFn = (&fabric.Pacer{Backoff: c.topo.Spec().ECNBackoff(), Stall: s.Submit}).OnMark
		}
		if c.arq != nil {
			s.rt = nic.Retransmitter{Eng: eng, Policy: failPolicy(d.Spec.Fault), Counters: &c.arq.ctrs}
		}
		s.arm()
	}

	if err := runFabric(eng, c.topo); err != nil {
		return nil, err
	}
	c.fstats = c.topo.Stats()
	c.dropped += int(c.fstats.Dropped + c.fstats.OutageDrops + c.fstats.BurstDrops)
	for i := range c.recvs {
		c.rxMax = max(c.rxMax, c.recvs[i].maxDepth)
	}
	c.reg.Counter(arch + ".delivered").Add(int64(c.delivered))
	c.reg.Counter(arch + ".dropped").Add(int64(c.dropped))
	return c, c.counts().check()
}

// arm schedules the host's next arrival, if any remain.
func (s *cellSender) arm() {
	if s.i < s.count {
		s.next = s.gen.Next()
		s.eng.At(s.next.At, s.arriveFn)
	}
}

// arrive admits one packet: the next arrival is armed first, then the
// packet picks its destination and enters the TX queue, through the ARQ
// when the cell has one.
func (s *cellSender) arrive() {
	c, e := s.c, s.next
	t := transmission{s: s, p: e.Packet(uint64(s.h)<<32 | uint64(s.i)), dst: c.hosts, g: s.base + s.i}
	s.i++
	s.arm()
	if s.destR != nil {
		t.dst = workload.SampleDest(s.destR, e.Locality, s.h, c.hosts, c.topo.Leaves())
		if c.topo.CrossesSpine(s.h, t.dst) {
			c.crossRack++
		}
	}
	t.born = c.eng.Now()
	c.offered++
	if c.arq == nil {
		s.transmit(t)
		return
	}
	if c.arq.holds(t.born) {
		c.arq.duringOffered++
	}
	s.sendARQ(t)
}

// sendARQ transmits the packet through the host's ARQ, one transmission
// per attempt, and records a give-up.
func (s *cellSender) sendARQ(t transmission) {
	a := s.c.arq
	s.rt.SendAsync(func(n int, ack func()) {
		t.attempt, t.ack = n, ack
		s.transmit(t)
	}, func(_ int, err error) {
		if err != nil {
			a.failed++
			a.gaveUp[t.g] = true
		}
	})
}

// transmit queues t at the host's TX driver.
func (s *cellSender) transmit(t transmission) {
	s.q.Push(t)
	s.Submit(s.m.TX(t.p).Total(), s.doneFn)
}

// txDone puts the TX driver's finished transmission on the host's uplink.
func (s *cellSender) txDone() {
	c := s.c
	t := s.q.Head()
	f := ethernet.Frame{ID: uint64(len(c.flights)), Bytes: t.p.Size}
	if n := len(c.free); n > 0 {
		f.ID = uint64(c.free[n-1])
		c.free = c.free[:n-1]
		c.flights[f.ID] = *t
	} else {
		c.flights = append(c.flights, *t)
	}
	dst := t.dst
	s.q.Drop()
	if !c.topo.Inject(s.h, dst, f, c.deliverFn) {
		c.dropped++
		c.land(f)
	}
}

// land frees frame f's flight slot and returns its transmission.
func (c *fabricCell) land(f ethernet.Frame) transmission {
	t := c.flights[f.ID]
	c.flights[f.ID] = transmission{}
	c.free = append(c.free, int(f.ID))
	return t
}

// deliver queues the frame at its destination's RX driver, then echoes
// an ECN mark to the sender. Under ARQ a copy of an already-delivered
// packet is discarded at the NIC first.
func (c *fabricCell) deliver(f ethernet.Frame) {
	t := c.land(f)
	if a := c.arq; a != nil {
		if a.seen[t.g] {
			a.dups++
			return
		}
		a.seen[t.g] = true
	}
	r := &c.recvs[t.dst]
	r.q.Push(t)
	r.Submit(r.m.RX(t.p).Total(), r.doneFn)
	if t.s.markFn != nil && f.ECN {
		c.topo.EchoMark(t.s.h, t.s.markFn)
	}
}

// rxDone records the finished transmission's end-to-end latency; under
// ARQ it also buckets the latency by delivery instant and echoes the
// acknowledgement.
func (r *driverQueue) rxDone() {
	c, t := r.c, *r.q.Head()
	r.q.Drop()
	now := c.eng.Now()
	lat := now - t.born
	c.hist.Observe(lat)
	c.delivered++
	c.wireBusy += c.link.SerializeTime(t.p.Size)
	a := c.arq
	if a == nil {
		return
	}
	// Bucket the tails by delivery instant so a recovered frame's
	// timer-dominated latency lands in the window it completed in, not the
	// one it was born in.
	switch {
	case now < a.start:
		a.before.Observe(lat)
	case now < a.end:
		a.during.Observe(lat)
	default:
		a.after.Observe(lat)
	}
	if a.holds(t.born) {
		a.duringDelivered++
	}
	if t.attempt > 0 {
		a.recovered++
		a.recoverySum += lat
	}
	c.topo.EchoMark(t.s.h, t.ack)
}

// cellCounts are a finished cell's packet tallies. dropped counts frames
// lost anywhere: refused by an uplink, dropped at a switch queue, eaten by
// a down element or a loss burst. The ARQ tallies count packets given up
// at the retry cap, those of them that still delivered, retransmissions,
// and copies discarded as duplicates.
type cellCounts struct {
	offered, delivered, dropped int
	arq                         bool
	failed, failedDelivered     int
	retransmits, duplicates     int
	// A collective cell also tallies step messages: sent, delivered once
	// their last frame cleared RX, and still open, waiting on lost frames.
	msgSent, msgDelivered, msgOpen int
}

// check enforces frame conservation. Without ARQ every offered packet is
// delivered or dropped. With ARQ every packet is delivered or given up (a
// copy still in flight at the give-up can do both), and every
// transmission reaches an RX queue, is discarded as a duplicate, or is
// dropped. Every sent message is delivered or still open.
func (n cellCounts) check() error {
	switch {
	case !n.arq && n.offered != n.delivered+n.dropped:
		return fmt.Errorf("conservation: offered %d != delivered %d + dropped %d", n.offered, n.delivered, n.dropped)
	case n.arq && n.offered != n.delivered+n.failed-n.failedDelivered:
		return fmt.Errorf("conservation: offered %d != delivered %d + failed %d - failed but delivered %d",
			n.offered, n.delivered, n.failed, n.failedDelivered)
	case n.arq && n.offered+n.retransmits != n.delivered+n.duplicates+n.dropped:
		return fmt.Errorf("conservation: offered %d + retransmits %d != delivered %d + duplicates %d + dropped %d",
			n.offered, n.retransmits, n.delivered, n.duplicates, n.dropped)
	case n.msgSent != n.msgDelivered+n.msgOpen:
		return fmt.Errorf("conservation: messages sent %d != delivered %d + open %d", n.msgSent, n.msgDelivered, n.msgOpen)
	}
	return nil
}

// counts gathers the cell's conservation tallies.
func (c *fabricCell) counts() cellCounts {
	n := cellCounts{offered: c.offered, delivered: c.delivered, dropped: c.dropped}
	if a := c.arq; a != nil {
		n.arq, n.failed, n.duplicates, n.retransmits = true, a.failed, a.dups, int(a.ctrs.Retransmits)
		for g, gave := range a.gaveUp {
			if gave && a.seen[g] {
				n.failedDelivered++
			}
		}
	}
	return n
}

// utilization is delivered wire occupancy over the makespan, averaged
// over the receiving links (one in an incast cell).
func (c *fabricCell) utilization() float64 {
	receivers := c.hosts
	if c.incast {
		receivers = 1
	}
	if c.eng.Now() == 0 {
		return 0
	}
	return float64(c.wireBusy) / (float64(c.eng.Now()) * float64(receivers))
}

// endpoints builds arch's driver machines over n fabric endpoints: a TX
// and an RX machine on each, or, in an incast cell, TX machines on the
// first n-1 and the only RX machine on the last. Endpoint h's NetDIMMs
// are seeded seed+2h+1 (TX) and seed+2h+2 (RX) either way.
func endpoints(d *spec.Derived, arch string, n int, incast bool, seed uint64) (txs, rxs []driver.Machine, err error) {
	var mk func(seed uint64) (driver.Machine, error)
	switch arch {
	case "dNIC":
		mk = func(uint64) (driver.Machine, error) { return d.NewDNIC(false), nil }
	case "iNIC":
		mk = func(uint64) (driver.Machine, error) { return d.NewINIC(false), nil }
	case "NetDIMM":
		mk = func(s uint64) (driver.Machine, error) { return d.NewNetDIMM(s) }
	default:
		return nil, nil, fmt.Errorf("unknown architecture %q", arch)
	}
	txs, rxs = make([]driver.Machine, n), make([]driver.Machine, n)
	for h := 0; h < n && err == nil; h++ {
		if !incast || h < n-1 {
			txs[h], err = mk(seed + 2*uint64(h) + 1)
		}
		if err == nil && (!incast || h == n-1) {
			rxs[h], err = mk(seed + 2*uint64(h) + 2)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return txs, rxs, nil
}

// serialServer is a FIFO single-server queue on the cell's engine — the
// model of one driver core draining packets one at a time. It is where
// load above the stage's capacity turns into waiting time. The queue is a
// ring whose head is the job in service, and every completion event is one
// method value, so serving a job allocates nothing.
type serialServer struct {
	eng      *sim.Engine
	queue    sim.FIFO[serialJob]
	finishFn func() // s.finish, bound on the first Submit
	maxDepth int
	// onDepth, when set, samples the queue depth after every change.
	onDepth func(at sim.Time, depth int)
}

type serialJob struct {
	service sim.Time
	done    func()
}

// Depth returns queued jobs including the one in service.
func (s *serialServer) Depth() int { return s.queue.Len() }

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
	s.queue.Push(serialJob{service: service, done: done})
	s.sample()
	if s.queue.Len() == 1 { // the server was idle
		s.serve()
	}
}

// serve starts the head job's service.
func (s *serialServer) serve() {
	if s.finishFn == nil {
		s.finishFn = s.finish
	}
	s.eng.Schedule(s.queue.Head().service, s.finishFn)
}

// finish completes the head job: its done runs while it still counts as in
// service, then the next job starts.
func (s *serialServer) finish() {
	s.queue.Head().done()
	s.queue.Drop()
	if s.queue.Len() == 0 {
		s.sample()
		return
	}
	s.serve()
}

// runFabric runs a fabric cell's engine dry and checks that it ended
// cleanly: no watchdog trip, and every injected frame delivered or
// dropped — none left in flight.
func runFabric(eng *sim.Engine, topo *fabric.Topology) error {
	eng.Run()
	if err := eng.Err(); err != nil {
		return err
	}
	if n := topo.InFlight(); n != 0 {
		return fmt.Errorf("fabric: %d frames neither delivered nor dropped after the engine drained", n)
	}
	return nil
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
