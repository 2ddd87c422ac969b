package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"netdimm/internal/ethernet"
	"netdimm/internal/fault"
	"netdimm/internal/sim"
)

// This file keeps the closure-per-hop fabric path that flight records and
// delay lines replaced — ethernet.Port with a resliced queue and per-frame
// wire/PHY closures, SwitchNode.Forward, and Inject/fromLeaf continuations
// capturing their routing state — as the reference the allocation-free
// path must match event for event.

type closurePort struct {
	eng      *sim.Engine
	link     ethernet.Link
	capacity int
	queue    []closureQueued
	busy     bool
	ecnAt    int
	stats    ethernet.PortStats
	inj      *fault.Injector
}

type closureQueued struct {
	frame   ethernet.Frame
	deliver func(ethernet.Frame)
}

func (p *closurePort) depth() int {
	n := len(p.queue)
	if p.busy {
		n++
	}
	return n
}

func (p *closurePort) Send(f ethernet.Frame, deliver func(ethernet.Frame)) bool {
	if p.depth() >= p.capacity {
		p.stats.Dropped++
		return false
	}
	if p.inj != nil && p.inj.PortDrop() {
		p.stats.Dropped++
		return false
	}
	if p.ecnAt > 0 && p.depth() >= p.ecnAt && !f.ECN {
		f.ECN = true
		p.stats.Marked++
	}
	f.Enqueued = p.eng.Now()
	p.queue = append(p.queue, closureQueued{frame: f, deliver: deliver})
	if d := p.depth(); d > p.stats.MaxDepth {
		p.stats.MaxDepth = d
	}
	if !p.busy {
		p.transmitNext()
	}
	return true
}

func (p *closurePort) transmitNext() {
	if len(p.queue) == 0 {
		p.busy = false
		return
	}
	p.busy = true
	qf := p.queue[0]
	p.queue = p.queue[1:]
	waited := p.eng.Now() - qf.frame.Enqueued
	wire := p.link.SerializeTime(qf.frame.Bytes)
	p.eng.Schedule(wire, func() {
		p.stats.Forwarded++
		p.stats.QueueDelaySum += waited
		if qf.deliver != nil {
			f := qf.frame
			p.eng.Schedule(p.link.PHYLatency, func() { qf.deliver(f) })
		}
		p.transmitNext()
	})
}

type closureSwitch struct {
	eng     *sim.Engine
	latency sim.Time
	ports   []*closurePort
}

func (s *closureSwitch) Forward(dst int, f ethernet.Frame, deliver func(ethernet.Frame)) {
	s.eng.Schedule(s.latency, func() { s.ports[dst].Send(f, deliver) })
}

// closureTopology routes over closure ports. The embedded Topology supplies
// the layout, ECMP and the armed failure plane; its own ports stay idle.
type closureTopology struct {
	*Topology
	uplinks []*closurePort
	leaves  []*closureSwitch
	spines  []*closureSwitch
}

func newClosureTopology(eng *sim.Engine, link ethernet.Link, latency sim.Time, s Spec, hosts, portBuffer int) *closureTopology {
	ct := &closureTopology{Topology: New(SingleEngine(eng), link, latency, s, hosts, portBuffer)}
	port := func(ecn int) *closurePort {
		return &closurePort{eng: eng, link: link, capacity: portBuffer, ecnAt: ecn}
	}
	sw := func(n int) *closureSwitch {
		s := &closureSwitch{eng: eng, latency: latency}
		for i := 0; i < n; i++ {
			s.ports = append(s.ports, port(ct.spec.ECNThreshold))
		}
		return s
	}
	for h := 0; h < hosts; h++ {
		ct.uplinks = append(ct.uplinks, port(0))
	}
	for l := 0; l < ct.spec.Leaves; l++ {
		lo, hi := ct.leafHostBounds(l)
		ct.leaves = append(ct.leaves, sw(ct.spec.Spines+(hi-lo)))
	}
	for sp := 0; sp < ct.spec.Spines; sp++ {
		ct.spines = append(ct.spines, sw(ct.spec.Leaves))
	}
	return ct
}

func (ct *closureTopology) InjectFaults(inj *fault.Injector) {
	for _, sws := range [][]*closureSwitch{ct.leaves, ct.spines} {
		for _, s := range sws {
			for _, p := range s.ports {
				p.inj = inj
			}
		}
	}
}

func (ct *closureTopology) Inject(src, dst int, f ethernet.Frame, delivered func(ethernet.Frame)) bool {
	if dst < 0 || dst >= ct.hosts {
		panic(fmt.Sprintf("fabric: no host %d", dst))
	}
	if ct.linkOut != nil && ct.linkOut[src] {
		ct.linkDrops[src]++
		return false
	}
	return ct.uplinks[src].Send(f, func(fr ethernet.Frame) {
		if ct.OnUplinkDeliver != nil {
			ct.OnUplinkDeliver(src, dst)
		}
		ct.eng.Schedule(ct.latency, func() { ct.fromLeaf(src, dst, fr, delivered) })
	})
}

func (ct *closureTopology) fromLeaf(src, dst int, f ethernet.Frame, delivered func(ethernet.Frame)) {
	sl, dl := ct.LeafOf(src), ct.LeafOf(dst)
	if ct.burst != nil && ct.burst.Lose() {
		return
	}
	if ct.health != nil && !ct.health.LeafUp(sl) {
		ct.health.stats.OutageDrops++
		return
	}
	if sl == dl {
		ct.leaves[sl].ports[ct.downIdx(sl, dst)].Send(f, delivered)
		return
	}
	sp := ct.routeSpine(sl, src, dst)
	if ct.health != nil && !ct.health.TrunkUp(sl, sp) {
		ct.health.stats.OutageDrops++
		return
	}
	ct.leaves[sl].ports[sp].Send(f, func(fr ethernet.Frame) {
		if ct.health != nil && !ct.health.SpineUp(sp) {
			ct.health.stats.OutageDrops++
			return
		}
		ct.spines[sp].Forward(dl, fr, func(fr2 ethernet.Frame) {
			if ct.health != nil && (!ct.health.LeafUp(dl) || !ct.health.TrunkUp(dl, sp)) {
				ct.health.stats.OutageDrops++
				return
			}
			ct.leaves[dl].Forward(ct.downIdx(dl, dst), fr2, delivered)
		})
	})
}

// Stats is Topology.Stats over the closure ports: the failure-plane
// tallies come from the embedded topology, the port counters from here.
func (ct *closureTopology) Stats() Stats {
	out := ct.Topology.Stats()
	for layer, sws := range [][]*closureSwitch{ct.leaves, ct.spines} {
		for _, s := range sws {
			for _, p := range s.ports {
				out.Forwarded += p.stats.Forwarded
				out.Dropped += p.stats.Dropped
				out.Marked += p.stats.Marked
				if layer == 0 {
					out.LeafMaxDepth = max(out.LeafMaxDepth, p.stats.MaxDepth)
				} else {
					out.SpineMaxDepth = max(out.SpineMaxDepth, p.stats.MaxDepth)
				}
			}
		}
	}
	return out
}

// fabricCase is one randomised equivalence scenario.
type fabricCase struct {
	spec       Spec
	hosts      int
	portBuffer int
	portDrop   float64
	sched      fault.Schedule
	frames     []plannedFrame
	// watchUplinks sets OnUplinkDeliver and traces its calls.
	watchUplinks bool
}

type plannedFrame struct {
	at       sim.Time
	src, dst int
	bytes    int
	listen   bool // false injects with a nil delivered callback
	echo     bool // on delivery, inject a reply from dst back to src
}

// fabricEvent is one observable outcome: a delivery (its frame ID, instant
// and ECN bit), an Inject refusal, or an OnUplinkDeliver call (id packs
// its src and dst; depth is src's uplink depth then, which tells whether
// the uplink's next frame left the wire before or after this one's PHY
// event on a same-instant tie).
type fabricEvent struct {
	kind  byte // 'd'elivered, 'r'efused, 'u'plink
	id    uint64
	at    sim.Time
	ecn   bool
	depth int
}

// phyBytes is the frame size whose 40G serialisation equals the 50 ns PHY
// latency, so a port's next wire-done event ties with the previous
// frame's PHY event and their schedule order decides which fires first.
const phyBytes = 226

func randomCase(rng *sim.Rand) fabricCase {
	leaves := rng.Range(1, 3)
	spines := rng.Range(0, 3)
	c := fabricCase{
		spec:         Spec{Leaves: leaves, Spines: spines, Seed: rng.Uint64()},
		hosts:        leaves*2 + rng.Range(0, 3),
		portBuffer:   []int{1, 2, 3, 8, 64}[rng.Intn(5)],
		watchUplinks: rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		c.spec.ECNThreshold = rng.Range(1, 4)
	}
	if rng.Intn(3) == 0 {
		c.portDrop = 0.05
	}
	res := c.spec.Resolved()
	const horizonNs = 4000
	window := func() (int, int) {
		start := rng.Range(0, horizonNs)
		return start, start + rng.Range(50, 1500)
	}
	for i, n := 0, rng.Range(0, 4); i < n; i++ {
		o := fault.Outage{}
		o.StartNs, o.EndNs = window()
		switch k := rng.Intn(4); {
		case k == 0:
			o.Kind, o.Index = fault.OutageLink, rng.Intn(c.hosts)
		case k == 1 && res.Spines > 0:
			o.Kind, o.Index = fault.OutageSpine, rng.Intn(res.Spines)
		case k == 2 && res.Spines > 0:
			o.Kind, o.Leaf, o.Index = fault.OutageTrunk, rng.Intn(res.Leaves), rng.Intn(res.Spines)
		default:
			o.Kind, o.Index = fault.OutageLeaf, rng.Intn(res.Leaves)
		}
		c.sched.Outages = append(c.sched.Outages, o)
	}
	if rng.Intn(3) == 0 {
		c.sched.Burst = fault.Burst{GoodLossProb: 0.01, BadLossProb: 0.6, GoodToBad: 0.1, BadToGood: 0.3}
		c.sched.Seed = rng.Uint64()
	}
	for i, n := 0, rng.Range(20, 120); i < n; i++ {
		f := plannedFrame{
			at:     sim.Time(rng.Range(0, horizonNs)) * sim.Nanosecond,
			src:    rng.Intn(c.hosts),
			dst:    rng.Intn(c.hosts),
			bytes:  []int{64, 64, phyBytes, 1500, 9000}[rng.Intn(5)],
			listen: rng.Intn(8) != 0,
			echo:   rng.Intn(4) == 0,
		}
		c.frames = append(c.frames, f)
	}
	return c
}

// fabricNet is what the equivalence driver needs of either path.
type fabricNet interface {
	Inject(src, dst int, f ethernet.Frame, delivered func(ethernet.Frame)) bool
	InjectFaults(inj *fault.Injector)
	ArmFailures(sched fault.Schedule, seed uint64) (*Health, error)
	Stats() Stats
}

// runCase plays c's traffic through net, whose OnUplinkDeliver hook lives
// in hooks and whose host uplink depths uplinkDepth reads, and returns the
// outcome trace.
func runCase(t *testing.T, eng *sim.Engine, net fabricNet, hooks *Topology, uplinkDepth func(int) int, c fabricCase) []fabricEvent {
	t.Helper()
	if c.portDrop > 0 {
		net.InjectFaults(fault.NewInjector(fault.Spec{PortDropProb: c.portDrop}, 5))
	}
	if _, err := net.ArmFailures(c.sched, 17); err != nil {
		t.Fatal(err)
	}
	var trace []fabricEvent
	if c.watchUplinks {
		hooks.OnUplinkDeliver = func(src, dst int) {
			trace = append(trace, fabricEvent{kind: 'u', id: uint64(src)<<32 | uint64(dst), at: eng.Now(), depth: uplinkDepth(src)})
		}
	}
	var inject func(id uint64, p plannedFrame)
	inject = func(id uint64, p plannedFrame) {
		var delivered func(ethernet.Frame)
		if p.listen {
			delivered = func(f ethernet.Frame) {
				trace = append(trace, fabricEvent{kind: 'd', id: f.ID, at: eng.Now(), ecn: f.ECN})
				if p.echo {
					// Inject from inside the delivery, as the collective
					// executor does; the reply does not echo again.
					reply := plannedFrame{src: p.dst, dst: p.src, bytes: 64, listen: true}
					inject(id|1<<63, reply)
				}
			}
		}
		if !net.Inject(p.src, p.dst, ethernet.Frame{ID: id, Bytes: p.bytes}, delivered) {
			trace = append(trace, fabricEvent{kind: 'r', id: id, at: eng.Now()})
		}
	}
	for i, p := range c.frames {
		id, p := uint64(i), p
		eng.At(p.at, func() { inject(id, p) })
	}
	eng.Run()
	return trace
}

// TestFlightPathMatchesClosurePath drives random traffic through the
// allocation-free fabric and the closure-per-hop reference on small clos
// shapes — 64 B frames overlapping in the PHY, frames whose wire time ties
// with the PHY, tiny buffers, ECN, injected
// port drops, Gilbert–Elliott bursts and outages landing mid-flight — and
// requires the same deliveries (ID, instant, ECN bit), refusals, fabric
// and uplink statistics, and the same number of engine events.
func TestFlightPathMatchesClosurePath(t *testing.T) {
	link := ethernet.Link40G()
	lat := 100 * sim.Nanosecond
	if link.SerializeTime(phyBytes) != link.PHYLatency {
		t.Fatalf("%d B serialise in %v, not the %v PHY latency", phyBytes, link.SerializeTime(phyBytes), link.PHYLatency)
	}
	rng := sim.NewRand(2024)
	for n := 0; n < 300; n++ {
		c := randomCase(rng)
		name := fmt.Sprintf("case%d/%dl%ds/%dh/buf%d", n, c.spec.Leaves, c.spec.Spines, c.hosts, c.portBuffer)

		eng := sim.NewEngine()
		topo := New(SingleEngine(eng), link, lat, c.spec, c.hosts, c.portBuffer)
		got := runCase(t, eng, topo, topo, func(h int) int { return topo.Uplink(h).Depth() }, c)

		refEng := sim.NewEngine()
		ref := newClosureTopology(refEng, link, lat, c.spec, c.hosts, c.portBuffer)
		want := runCase(t, refEng, ref, ref.Topology, func(h int) int { return ref.uplinks[h].depth() }, c)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: outcome traces differ\nflight  %v\nclosure %v", name, got, want)
		}
		if g, w := topo.Stats(), ref.Stats(); g != w {
			t.Fatalf("%s: Stats differ\nflight  %+v\nclosure %+v", name, g, w)
		}
		for h := 0; h < c.hosts; h++ {
			if g, w := topo.Uplink(h).Stats(), ref.uplinks[h].stats; g != w {
				t.Fatalf("%s: uplink %d stats differ\nflight  %+v\nclosure %+v", name, h, g, w)
			}
		}
		if eng.Fired() != refEng.Fired() || eng.Now() != refEng.Now() {
			t.Fatalf("%s: %d events ending at %v, closure path %d ending at %v",
				name, eng.Fired(), eng.Now(), refEng.Fired(), refEng.Now())
		}
		if topo.InFlight() != 0 {
			t.Fatalf("%s: %d flights left after the engine drained", name, topo.InFlight())
		}
	}
}
