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

// The cell transport behind the load, rack, failure and collective
// sweeps is the path the paper times for each packet: on one engine every
// frame waits at its sender's serial TX driver queue, crosses the cell
// spec's fabric and waits at its destination's serial RX driver queue.
// Two sources feed it through two hooks bound once. The open-loop fabric
// cell runs one arrival stream per sending host; its families differ in
// destination choice (cellOpts.incast), ECN echo (the cell spec's
// Fabric.ECNThreshold: a marked delivery stalls its sender's TX queue
// through a fabric.Pacer) and the outage window with ack-timeout ARQ
// (cellOpts.outage), and each family's row and metrics are a projection
// of the finished cell. The collective source (collsweep.go) fragments
// step messages into frames and delivers a message once its last frame
// has cleared RX.

// cellTransport is a cell's engine, endpoints and fabric, and the
// TX → fabric → RX path every frame takes. Every handler is bound once,
// so a warm transport allocates nothing per frame.
type cellTransport struct {
	arch   string
	eng    *sim.Engine
	topo   *fabric.Topology
	link   ethernet.Link
	reg    *obs.Registry
	tx, rx []driverQueue // one each per endpoint
	// prices, in a cell of stateless analytic drivers, holds their TX and
	// RX totals by frame size, each filled on its first use; nil otherwise.
	prices *[2][nic.MTU + 1]sim.Time
	// flights holds the frames crossing the fabric by slot, and a frame
	// carries its slot as its ID (ports and the topology never read it).
	// Delivery, an uplink refusal or the topology's OnDrop frees the slot.
	flights   slab[frame]
	deliverFn func(ethernet.Frame) // t.deliver, bound once
	// spare is the free list of job chunks the driver queues share, taken
	// from the sweep's pool in init and given back to it in run.
	pool  *jobPool
	spare *chunkList
	// The source's hooks: admit, when set, decides whether a frame off the
	// fabric queues at RX by its tag; cleared sees every frame that clears
	// RX.
	admit   func(tag int) bool
	cleared func(fr *frame)

	// offered is the source's tally: packets in an open-loop cell, frames
	// in a collective one. delivered counts frames that cleared RX.
	offered, delivered, dropped int
	wireBusy                    sim.Time
	fstats                      fabric.Stats
}

// frame is one transmitted frame: a copy of an open-loop packet, or one
// fragment of a collective step message. It holds no pointer.
type frame struct {
	p        nic.Packet // Born is the instant the source offered it
	src, dst int32      // endpoints
	// tag is the packet's global number (host-major) in an open-loop cell,
	// or its message's slot in a collective one.
	tag, attempt int
}

// driverQueue is one endpoint's serial TX or RX driver core: its queue's
// head is the job in service, and finish, bound once, completes each job.
type driverQueue struct {
	t         *cellTransport
	m         driver.Machine
	rx        bool
	price     *[nic.MTU + 1]sim.Time // this direction's row of t.prices
	jobs      jobQueue
	finishFn  func()
	stallDone func() // the ECN pacer's end of stall
	markFn    func() // TX: the ECN pacer's OnMark; nil without pacing
	maxDepth  int
	// onDepth, when set, samples the queue depth after every change.
	onDepth func(at sim.Time, depth int)
}

// job is a frame and its driver service time, or an ECN-pacer stall that
// occupies the driver for service.
type job struct {
	fr      frame
	service sim.Time
	stall   bool
}

// cellProbe, when set, replaces the engine probe of every cell engine a
// transport builds; tests record a cell's event sequence through it.
var cellProbe sim.Probe

// init builds t's engine, arch's machines over n endpoints (see
// endpoints), the engine probe and the cell spec's fabric; the driver
// queues keep their jobs in chunks from a free list of pool's. The caller
// binds the hooks.
func (t *cellTransport) init(d *spec.Derived, arch string, n int, incast bool, seed, eventBudget uint64, portBuffer int, pool *jobPool, reg *obs.Registry) error {
	t.eng = sim.NewEngine()
	t.eng.SetWatchdog(sim.Watchdog{MaxEvents: eventBudget})
	txs, rxs, err := endpoints(d, arch, n, incast, seed)
	if err != nil {
		return err
	}
	// A dNIC or iNIC driver with no recorder, over a PCIe link with no
	// observer, prices a frame from its size alone (TestHWDriverPureInSize).
	if hw, ok := rxs[n-1].(*driver.HWDriver); ok && hw.Rec == nil {
		if dn, ok := hw.Dev.(nic.DNIC); !ok || dn.Link.Obs == nil {
			t.prices = new([2][nic.MTU + 1]sim.Time)
		}
	}
	t.arch, t.link, t.reg = arch, d.Link, reg
	t.pool, t.spare = pool, pool.take()
	t.tx, t.rx = make([]driverQueue, n), make([]driverQueue, n)
	t.deliverFn = t.deliver
	for i := range t.tx {
		tx, rx := &t.tx[i], &t.rx[i]
		*tx = driverQueue{t: t, m: txs[i], jobs: jobQueue{spare: t.spare}}
		*rx = driverQueue{t: t, m: rxs[i], rx: true, jobs: jobQueue{spare: t.spare}}
		tx.finishFn, rx.finishFn = tx.finish, rx.finish
		if t.prices != nil {
			tx.price, rx.price = &t.prices[0], &t.prices[1]
		}
	}
	obs.NewEngineProbe(reg, arch+".engine").Attach(t.eng)
	if cellProbe != nil {
		t.eng.SetProbe(cellProbe)
	}
	t.topo = d.NewTopology(fabric.SingleEngine(t.eng), n, portBuffer)
	t.topo.OnDrop = t.lost
	return nil
}

// send queues fr at its source's TX driver.
func (t *cellTransport) send(fr frame) {
	q := &t.tx[fr.src]
	q.push(job{fr: fr, service: q.cost(fr.p)})
}

// cost is q's driver service time for p, from t.prices when it is set.
func (q *driverQueue) cost(p nic.Packet) sim.Time {
	if q.price != nil && q.price[p.Size] != 0 {
		return q.price[p.Size]
	}
	var c sim.Time
	if q.rx {
		c = q.m.RX(p).Total()
	} else {
		c = q.m.TX(p).Total()
	}
	if q.price != nil {
		q.price[p.Size] = c
	}
	return c
}

// stall is the ECN pacer's Stall, which has at most one stall outstanding
// and always passes the same done.
func (q *driverQueue) stall(d sim.Time, done func()) {
	q.stallDone = done
	q.push(job{service: d, stall: true})
}

// push queues j and starts it if the driver was idle.
func (q *driverQueue) push(j job) {
	q.jobs.Push(j)
	q.sample()
	if q.jobs.Len() == 1 {
		q.t.eng.Schedule(j.service, q.finishFn)
	}
}

// sample records the queue's depth, the job in service included.
func (q *driverQueue) sample() {
	q.maxDepth = max(q.maxDepth, q.jobs.Len())
	if q.onDepth != nil {
		q.onDepth(q.t.eng.Now(), q.jobs.Len())
	}
}

// finish completes the head job, which still counts as in service while
// it is handed on, then starts the next.
func (q *driverQueue) finish() {
	switch j := q.jobs.Head(); {
	case j.stall:
		q.stallDone()
	case q.rx: // tally the frame and hand it to the source
		q.t.delivered++
		q.t.wireBusy += q.t.link.SerializeTime(j.fr.p.Size)
		q.t.cleared(&j.fr)
	default:
		q.t.txDone(j.fr)
	}
	q.jobs.Drop()
	if q.jobs.Len() == 0 {
		q.sample()
		return
	}
	q.t.eng.Schedule(q.jobs.Head().service, q.finishFn)
}

// txDone puts a frame its TX driver finished on its endpoint's uplink.
func (t *cellTransport) txDone(fr frame) {
	f := ethernet.Frame{ID: uint64(t.flights.put(fr)), Bytes: fr.p.Size}
	if !t.topo.Inject(int(fr.src), int(fr.dst), f, t.deliverFn) {
		t.dropped++
		t.flights.take(int(f.ID))
	}
}

// lost frees the slot of a frame the fabric dropped past its uplink.
func (t *cellTransport) lost(f ethernet.Frame) { t.flights.take(int(f.ID)) }

// deliver queues a frame off the fabric at its destination's RX driver
// unless the source's admit refuses it, then echoes an ECN mark to a
// pacing sender.
func (t *cellTransport) deliver(f ethernet.Frame) {
	fr := t.flights.take(int(f.ID))
	if t.admit != nil && !t.admit(fr.tag) {
		return
	}
	rx := &t.rx[fr.dst]
	rx.push(job{fr: fr, service: rx.cost(fr.p)})
	if mark := t.tx[fr.src].markFn; mark != nil && f.ECN {
		t.topo.EchoMark(int(fr.src), mark)
	}
}

// run runs the cell's engine dry, checks that it ended cleanly, gives the
// drained queues' chunks back to the sweep and folds the fabric's drops
// into the tally.
func (t *cellTransport) run() error {
	if err := runFabric(t.eng, t.topo); err != nil {
		return err
	}
	t.pool.give(t.spare)
	t.fstats = t.topo.Stats()
	t.dropped += int(t.fstats.Dropped + t.fstats.OutageDrops + t.fstats.BurstDrops)
	return nil
}

// utilization is delivered wire occupancy over the makespan, averaged
// over the receiving links.
func (t *cellTransport) utilization(receivers int) float64 {
	if t.eng.Now() == 0 {
		return 0
	}
	return float64(t.wireBusy) / (float64(t.eng.Now()) * float64(receivers))
}

// slab holds values in numbered slots reused through a free list, so a
// warm slab allocates nothing.
type slab[T any] struct {
	items []T
	free  []int
}

// put stores v in a free slot and returns the slot.
func (s *slab[T]) put(v T) int {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[i] = v
		return i
	}
	s.items = append(s.items, v)
	return len(s.items) - 1
}

// take frees slot i and returns its value.
func (s *slab[T]) take(i int) T {
	v := s.items[i]
	var zero T
	s.items[i] = zero
	s.free = append(s.free, i)
	return v
}

// cellOpts parameterise one open-loop fabric cell.
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

// outageWindow is the swept outage [start, end) of spine failSpine.
type outageWindow struct{ start, end sim.Time }

func (w *outageWindow) holds(t sim.Time) bool { return t >= w.start && t < w.end }

// fabricCell is the open-loop source on its transport: its wiring while
// it runs, then its tallies.
type fabricCell struct {
	cellTransport
	hosts int       // sending hosts; an incast cell has one more endpoint
	arq   *arqTally // nil without cellOpts.outage

	hist             *stats.Histogram
	crossRack, rxMax int
}

// arqTally is an ARQ cell's recovery state; seen and gaveUp are indexed
// by global packet number (host-major).
type arqTally struct {
	outageWindow
	ctrs                           stats.FaultCounters
	seen, gaveUp                   []bool
	acks                           [][]func() // by packet, then attempt
	failed, dups, recovered        int
	duringOffered, duringDelivered int
	recoverySum                    sim.Time
	before, during, after          stats.Histogram
}

// cellSender is one host's open-loop arrival stream.
type cellSender struct {
	c                 *fabricCell
	h, i, count, base int // base: global number of the host's first packet
	gen               *workload.OpenLoop
	destR             *sim.Rand // nil in an incast cell
	rt                nic.Retransmitter
	next              workload.Event // the armed arrival
	arriveFn          func()
}

// runFabricCell builds, runs and checks one cell of shape.hosts senders.
func runFabricCell(sp spec.Spec, arch string, shape loadShape, opts cellOpts, oc *obs.Cell) (*fabricCell, error) {
	d := sp.MustDerive()
	n, sources := shape.hosts, 1
	if opts.incast {
		n, sources = shape.hosts+1, shape.hosts
	}
	c := &fabricCell{hosts: shape.hosts, hist: stats.NewHistogram(opts.packets)}
	if err := c.init(d, arch, n, opts.incast, opts.seed, opts.eventBudget, shape.portBuffer, shape.jobs, oc.Metrics()); err != nil {
		return nil, err
	}
	perHostGap, err := shape.cluster.MeanGapForLoad(opts.load, sources, d.Link.BitsPerSec/1e9)
	if err != nil {
		return nil, err
	}
	c.cleared = c.observe
	if d.Spec.Fault.PortDropProb > 0 {
		c.topo.InjectFaults(fault.NewInjector(d.Spec.Fault, opts.seed))
	}
	sched := sp.Fault.Failure
	if w := opts.outage; w != nil && w.end > w.start {
		sched.Outages = append(append([]fault.Outage(nil), sched.Outages...), fault.Outage{Kind: fault.OutageSpine,
			Index: failSpine, StartNs: int(w.start / sim.Nanosecond), EndNs: int(w.end / sim.Nanosecond)})
	}
	if _, err := c.topo.ArmFailures(sched, opts.seed); err != nil {
		return nil, err
	}
	if opts.incast {
		// The receiver's RX queue and its downlink — the incast
		// bottleneck on the wire side — are sampled with metrics on.
		if s := c.reg.Series(arch + ".rx_queue_depth"); s != nil {
			c.rx[c.hosts].onDepth = func(at sim.Time, depth int) { s.Sample(at, int64(depth)) }
		}
		if s := c.reg.Series(arch + ".egress_depth"); s != nil {
			eg := c.topo.Downlink(c.hosts)
			c.topo.OnUplinkDeliver = func(int, int) { s.Sample(c.eng.Now(), int64(eg.Depth())) }
		}
	}
	if w := opts.outage; w != nil {
		c.arq = &arqTally{outageWindow: *w, seen: make([]bool, opts.packets), gaveUp: make([]bool, opts.packets),
			acks: make([][]func(), opts.packets)}
		c.admit = c.arq.unseen
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
		s.arriveFn = s.arrive
		if c.topo.Spec().ECNThreshold > 0 {
			// A mark stalls the sender by occupying its TX driver for one
			// backoff — queued arrivals wait behind it.
			c.tx[h].markFn = (&fabric.Pacer{Backoff: c.topo.Spec().ECNBackoff(), Stall: c.tx[h].stall}).OnMark
		}
		if c.arq != nil {
			s.rt = nic.Retransmitter{Eng: c.eng, Policy: failPolicy(d.Spec.Fault), Counters: &c.arq.ctrs}
		}
		s.arm()
	}

	if err := c.run(); err != nil {
		return nil, err
	}
	for i := range c.rx {
		c.rxMax = max(c.rxMax, c.rx[i].maxDepth)
	}
	c.reg.Counter(arch + ".delivered").Add(int64(c.delivered))
	c.reg.Counter(arch + ".dropped").Add(int64(c.dropped))
	return c, c.counts().check()
}

// arm schedules the host's next arrival, if any remain.
func (s *cellSender) arm() {
	if s.i < s.count {
		s.next = s.gen.Next()
		s.c.eng.At(s.next.At, s.arriveFn)
	}
}

// arrive admits one packet: the next arrival is armed first, then the
// packet picks its destination and enters the TX queue, through the ARQ
// when the cell has one.
func (s *cellSender) arrive() {
	c, e := s.c, s.next
	fr := frame{p: e.Packet(uint64(s.h)<<32 | uint64(s.i)), src: int32(s.h), dst: int32(c.hosts), tag: s.base + s.i}
	s.i++
	s.arm()
	if s.destR != nil {
		dst := workload.SampleDest(s.destR, e.Locality, s.h, c.hosts, c.topo.Leaves())
		if c.topo.CrossesSpine(s.h, dst) {
			c.crossRack++
		}
		fr.dst = int32(dst)
	}
	c.offered++
	if c.arq == nil {
		c.send(fr)
		return
	}
	if c.arq.holds(fr.p.Born) {
		c.arq.duringOffered++
	}
	s.sendARQ(fr)
}

// sendARQ transmits the packet through the host's ARQ, one frame per
// attempt, and records a give-up.
func (s *cellSender) sendARQ(fr frame) {
	c, a := s.c, s.c.arq
	s.rt.SendAsync(func(n int, ack func()) {
		fr.attempt = n
		a.acks[fr.tag] = append(a.acks[fr.tag], ack)
		c.send(fr)
	}, func(_ int, err error) {
		if err != nil {
			a.failed++
			a.gaveUp[fr.tag] = true
		}
	})
}

// unseen admits the first copy of packet g to RX; a later copy is
// discarded at the NIC as a duplicate.
func (a *arqTally) unseen(g int) bool {
	if a.seen[g] {
		a.dups++
		return false
	}
	a.seen[g] = true
	return true
}

// observe records a frame's end-to-end latency as it clears RX; under
// ARQ it also buckets the latency by delivery instant and echoes the
// acknowledgement.
func (c *fabricCell) observe(fr *frame) {
	now := c.eng.Now()
	lat := now - fr.p.Born
	c.hist.Observe(lat)
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
	if a.holds(fr.p.Born) {
		a.duringDelivered++
	}
	if fr.attempt > 0 {
		a.recovered++
		a.recoverySum += lat
	}
	c.topo.EchoMark(int(fr.src), a.acks[fr.tag][fr.attempt])
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

// Archs are the NIC architectures every sweep compares, in output order.
var Archs = []string{"dNIC", "iNIC", "NetDIMM"}

// newMachine builds one endpoint of arch; seed is the NetDIMM device seed,
// which the analytic dNIC and iNIC endpoints do not use.
func newMachine(d *spec.Derived, arch string, seed uint64) (driver.Machine, error) {
	switch arch {
	case "dNIC":
		return d.NewDNIC(false), nil
	case "iNIC":
		return d.NewINIC(false), nil
	case "NetDIMM":
		return d.NewNetDIMM(seed)
	}
	return nil, fmt.Errorf("unknown architecture %q", arch)
}

// endpoints builds arch's driver machines over n fabric endpoints: a TX
// and an RX machine on each, or, in an incast cell, TX machines on the
// first n-1 and the only RX machine on the last. Endpoint h's NetDIMMs
// are seeded seed+2h+1 (TX) and seed+2h+2 (RX) either way. A dNIC or
// iNIC driver holds no state, so one serves every endpoint.
func endpoints(d *spec.Derived, arch string, n int, incast bool, seed uint64) (txs, rxs []driver.Machine, err error) {
	txs, rxs = make([]driver.Machine, n), make([]driver.Machine, n)
	if arch != "NetDIMM" {
		m, err := newMachine(d, arch, 0)
		for h := range txs {
			txs[h], rxs[h] = m, m
		}
		return txs, rxs, err
	}
	for h := 0; h < n && err == nil; h++ {
		if !incast || h < n-1 {
			txs[h], err = newMachine(d, arch, seed+2*uint64(h)+1)
		}
		if err == nil && (!incast || h == n-1) {
			rxs[h], err = newMachine(d, arch, seed+2*uint64(h)+2)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return txs, rxs, nil
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
