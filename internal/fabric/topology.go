package fabric

import (
	"fmt"

	"netdimm/internal/ethernet"
	"netdimm/internal/fault"
	"netdimm/internal/sim"
)

// Placement is the engine a topology is built on. It is an opaque
// one-engine value that exists only so the out-of-module benchmark
// programs under bench/ keep compiling against New and
// spec.Derived.NewTopology; SingleEngine is its only constructor.
type Placement struct {
	eng *sim.Engine
}

// SingleEngine places every port of the topology on eng.
func SingleEngine(eng *sim.Engine) Placement { return Placement{eng: eng} }

// Topology is a built fabric: hosts' uplink ports, the leaf switches (one
// block of hosts each) and the spine switches joining them. Frames enter
// through Inject and every hop — uplink, leaf egress, spine egress —
// is a finite output queue that serialises, tail-drops and (when armed)
// ECN-marks.
//
// Port layout: leaf l's ports [0, spines) face the spines (one uplink
// each) and ports [spines, spines+hostsOn(l)) face its hosts (one
// downlink each); spine s has one port per leaf. Routing is hop-by-hop:
// same-leaf traffic turns around at the leaf, cross-leaf traffic takes
// leaf → ECMP-chosen spine → destination leaf.
type Topology struct {
	spec    Spec // resolved
	link    ethernet.Link
	latency sim.Time
	hosts   int
	eng     *sim.Engine

	uplinks []*ethernet.Port
	leaves  []*ethernet.SwitchNode
	spines  []*ethernet.SwitchNode

	// Failure plane, armed by ArmFailures; all nil/empty when no schedule
	// is armed so the default path is untouched. The link-outage state is
	// per host: linkOut flips by scheduled events, linkDrops/linkFlips
	// count in Inject.
	health    *Health
	burst     *fault.GilbertElliott
	linkOut   []bool
	linkDrops []uint64
	linkFlips []uint64

	// OnUplinkDeliver, when set, runs the moment host src's uplink
	// delivers a frame toward the fabric (before the switch latency to
	// its leaf). The load sweep uses it to sample queue depths.
	OnUplinkDeliver func(src, dst int)
}

// New builds the topology described by s (resolved with its defaults)
// over the given link and per-hop switch latency, for `hosts` hosts with
// `portBuffer` frames of buffering at every port. ECN marking, when
// armed, applies to the switch ports only — the host uplink NIC queue
// does not mark, mirroring switch-based ECN deployments.
func New(p Placement, link ethernet.Link, latency sim.Time, s Spec, hosts, portBuffer int) *Topology {
	if hosts < 1 {
		panic(fmt.Sprintf("fabric: topology needs hosts, got %d", hosts))
	}
	if p.eng == nil {
		panic("fabric: placement has no engine")
	}
	s = s.Resolved()
	t := &Topology{spec: s, link: link, latency: latency, hosts: hosts, eng: p.eng}

	t.uplinks = make([]*ethernet.Port, hosts)
	for h := 0; h < hosts; h++ {
		t.uplinks[h] = ethernet.NewPort(t.eng, link, portBuffer)
	}
	t.leaves = make([]*ethernet.SwitchNode, s.Leaves)
	for l := range t.leaves {
		lo, hi := t.leafHostBounds(l)
		t.leaves[l] = ethernet.NewSwitchNode(t.eng, link, latency, s.Spines+(hi-lo), portBuffer)
		if s.ECNThreshold > 0 {
			t.leaves[l].SetECNThreshold(s.ECNThreshold)
		}
	}
	if s.Spines > 0 {
		t.spines = make([]*ethernet.SwitchNode, s.Spines)
		for sp := range t.spines {
			t.spines[sp] = ethernet.NewSwitchNode(t.eng, link, latency, s.Leaves, portBuffer)
			if s.ECNThreshold > 0 {
				t.spines[sp].SetECNThreshold(s.ECNThreshold)
			}
		}
	}
	return t
}

// Spec returns the resolved fabric block the topology was built from.
func (t *Topology) Spec() Spec { return t.spec }

// Hosts returns the host count.
func (t *Topology) Hosts() int { return t.hosts }

// Leaves returns the leaf count.
func (t *Topology) Leaves() int { return len(t.leaves) }

// Spines returns the spine count.
func (t *Topology) Spines() int { return len(t.spines) }

// LeafOf returns host h's leaf.
func (t *Topology) LeafOf(h int) int { return LeafOf(h, t.hosts, len(t.leaves)) }

// leafHostBounds returns the half-open host range [lo, hi) attached to
// leaf l.
func (t *Topology) leafHostBounds(l int) (lo, hi int) {
	per := (t.hosts + len(t.leaves) - 1) / len(t.leaves)
	lo = l * per
	hi = lo + per
	if hi > t.hosts {
		hi = t.hosts
	}
	if lo > hi {
		lo = hi // trailing leaves of an uneven split carry no hosts
	}
	return lo, hi
}

// downIdx returns the leaf-l port index of the downlink toward host h.
func (t *Topology) downIdx(l, h int) int {
	lo, _ := t.leafHostBounds(l)
	return t.spec.Spines + (h - lo)
}

// Uplink returns host h's NIC uplink port.
func (t *Topology) Uplink(h int) *ethernet.Port { return t.uplinks[h] }

// Downlink returns the leaf egress port facing host h — the last queue a
// frame crosses before delivery (the incast hot spot).
func (t *Topology) Downlink(h int) *ethernet.Port {
	l := t.LeafOf(h)
	return t.leaves[l].Port(t.downIdx(l, h))
}

// SpineFor returns the spine the (src, dst) flow currently routes over:
// the ECMP hash's pick, unless a failure schedule is armed and that
// spine's path is down — then the hash re-rolls over the surviving
// uplinks (failover), or the degraded single path when none survive. It
// panics on a spineless fabric (no cross-leaf path exists to choose).
func (t *Topology) SpineFor(src, dst int) int {
	if len(t.spines) == 0 {
		panic("fabric: no spines to hash over")
	}
	h := FlowHash(uint64(src), uint64(dst), t.spec.Seed)
	primary := int(h % uint64(len(t.spines)))
	if t.health == nil {
		return primary
	}
	s, _, _ := t.health.spineFor(t.LeafOf(src), primary, h)
	return s
}

// routeSpine is SpineFor with failover accounting — the per-frame routing
// decision.
func (t *Topology) routeSpine(sl, src, dst int) int {
	h := FlowHash(uint64(src), uint64(dst), t.spec.Seed)
	primary := int(h % uint64(len(t.spines)))
	if t.health == nil {
		return primary
	}
	return t.health.route(sl, primary, h, t.eng.Now())
}

// CrossesSpine reports whether src→dst traffic leaves its leaf.
func (t *Topology) CrossesSpine(src, dst int) bool {
	return t.LeafOf(src) != t.LeafOf(dst)
}

// Inject sends a frame from host src's uplink toward host dst; delivered
// fires when the frame leaves dst's downlink port
// (its ECN bit reflecting any congested queue along the way). Inject
// returns false if src's own uplink buffer tail-dropped the frame; drops
// deeper in the fabric are counted in the per-port stats and simply never
// deliver.
func (t *Topology) Inject(src, dst int, f ethernet.Frame, delivered func(ethernet.Frame)) bool {
	if dst < 0 || dst >= t.hosts {
		panic(fmt.Sprintf("fabric: no host %d", dst))
	}
	if t.linkOut != nil && t.linkOut[src] {
		// The sender's uplink cable is down: the frame is lost at the NIC,
		// reported like a tail drop (the sender's ARQ timer is what
		// discovers it either way).
		t.linkDrops[src]++
		return false
	}
	return t.uplinks[src].Send(f, func(fr ethernet.Frame) {
		if t.OnUplinkDeliver != nil {
			t.OnUplinkDeliver(src, dst)
		}
		// The uplink's far end is the source leaf's ingress: one switch
		// latency away.
		t.eng.Schedule(t.latency, func() { t.fromLeaf(src, dst, fr, delivered) })
	})
}

// fromLeaf routes a frame that has just arrived (switch latency already
// paid) at src's leaf. Same-leaf traffic enqueues straight at the
// destination downlink; cross-leaf traffic queues at the leaf's spine
// uplink, pays the spine's latency into its leaf-facing port, then the
// destination leaf's latency into the final downlink.
func (t *Topology) fromLeaf(src, dst int, f ethernet.Frame, delivered func(ethernet.Frame)) {
	sl, dl := t.LeafOf(src), t.LeafOf(dst)
	if t.burst != nil && t.burst.Lose() {
		return // Gilbert–Elliott ingress loss; the process keeps the tally
	}
	if t.health != nil && !t.health.LeafUp(sl) {
		t.health.stats.OutageDrops++
		return
	}
	if sl == dl {
		t.leaves[sl].Port(t.downIdx(sl, dst)).Send(f, delivered)
		return
	}
	sp := t.routeSpine(sl, src, dst)
	if t.health != nil && !t.health.TrunkUp(sl, sp) {
		// Dead cable out of the leaf: only degraded-mode frames land here
		// (failover never picks a dead trunk), and they drop at once.
		t.health.stats.OutageDrops++
		return
	}
	t.leaves[sl].Port(sp).Send(f, func(fr ethernet.Frame) {
		// The frame has crossed the leaf→spine wire; a spine that is — or
		// went, mid-flight — down eats it here. Recovering those frames is
		// exactly what the sender's retransmit timer exists for.
		if t.health != nil && !t.health.SpineUp(sp) {
			t.health.stats.OutageDrops++
			return
		}
		t.spines[sp].Forward(dl, fr, func(fr2 ethernet.Frame) {
			if t.health != nil && (!t.health.LeafUp(dl) || !t.health.TrunkUp(dl, sp)) {
				t.health.stats.OutageDrops++
				return
			}
			t.leaves[dl].Forward(t.downIdx(dl, dst), fr2, delivered)
		})
	})
}

// EchoMark schedules fn one switch latency from now — the simplified
// return path of an ECN echo toward host src (a lossless control message,
// not subject to the data-path queues).
func (t *Topology) EchoMark(src int, fn func()) {
	t.eng.Schedule(t.latency, fn)
}

// InjectFaults attaches the injector to every switch port — drops now
// apply at every hop, not only the final egress. The host uplinks are
// left clean: they model the sender's NIC queue, not the fabric.
func (t *Topology) InjectFaults(inj *fault.Injector) {
	for _, l := range t.leaves {
		l.InjectFaults(inj)
	}
	for _, s := range t.spines {
		s.InjectFaults(inj)
	}
}

// ArmFailures arms a failure schedule on the topology: every outage
// window becomes a pair of scheduled events flipping the element's down
// depth at the window bounds, and an enabled Burst
// becomes a Gilbert–Elliott process consulted once per fabric-ingress
// frame. The returned Health view is what ECMP consults from then on; it
// is nil for a schedule with no spine/leaf/trunk outages (link outages
// are sender-local state and arm no fabric view), and the topology is
// entirely untouched by a zero schedule. An outage naming an element
// outside this topology is an error.
//
// seed is the cell seed; the burst stream is derived from it and the
// schedule's own Seed the way injector streams are.
func (t *Topology) ArmFailures(sched fault.Schedule, seed uint64) (*Health, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	for i, o := range sched.Outages {
		var ok bool
		switch o.Kind {
		case fault.OutageLink:
			ok = o.Index < t.hosts
		case fault.OutageSpine:
			ok = o.Index < len(t.spines)
		case fault.OutageLeaf:
			ok = o.Index < len(t.leaves)
		case fault.OutageTrunk:
			ok = o.Leaf < len(t.leaves) && o.Index < len(t.spines)
		}
		if !ok {
			return nil, fmt.Errorf("fabric: Outages[%d] (%v) names no element of this %d-leaf/%d-spine/%d-host topology",
				i, o, len(t.leaves), len(t.spines), t.hosts)
		}
	}
	for _, o := range sched.Outages {
		// Link outages are sender-local state; only fabric-element outages
		// need the health view ECMP consults.
		if o.Kind != fault.OutageLink && t.health == nil {
			t.health = newHealth(len(t.leaves), len(t.spines))
		}
	}
	for _, o := range sched.Outages {
		o := o
		start, end := o.Window()
		switch o.Kind {
		case fault.OutageLink:
			if t.linkOut == nil {
				t.linkOut = make([]bool, t.hosts)
				t.linkDrops = make([]uint64, t.hosts)
				t.linkFlips = make([]uint64, t.hosts)
			}
			t.eng.At(start, func() { t.linkOut[o.Index] = true; t.linkFlips[o.Index]++ })
			t.eng.At(end, func() { t.linkOut[o.Index] = false; t.linkFlips[o.Index]++ })
		case fault.OutageSpine:
			t.eng.At(start, func() { t.health.shiftSpine(o.Index, 1) })
			t.eng.At(end, func() { t.health.shiftSpine(o.Index, -1) })
		case fault.OutageLeaf:
			t.eng.At(start, func() { t.health.shiftLeaf(o.Index, 1) })
			t.eng.At(end, func() { t.health.shiftLeaf(o.Index, -1) })
		case fault.OutageTrunk:
			t.eng.At(start, func() { t.health.shiftTrunk(o.Leaf, o.Index, 1) })
			t.eng.At(end, func() { t.health.shiftTrunk(o.Leaf, o.Index, -1) })
		}
	}
	if sched.Burst.Enabled() {
		t.burst = fault.NewGilbertElliott(sched.Burst, seed^(sched.Seed*0x9e3779b97f4a7c15))
	}
	return t.health, nil
}

// Health returns the armed failure-state view, or nil when ArmFailures
// scheduled no outages.
func (t *Topology) Health() *Health { return t.health }

// PerSpineForwarded returns each spine's total forwarded-frame count in
// spine order — the per-spine view of an ECMP failover: an outage shifts
// counts off the down spine onto the survivors.
func (t *Topology) PerSpineForwarded() []uint64 {
	out := make([]uint64, len(t.spines))
	for i, sp := range t.spines {
		for p := 0; p < sp.Ports(); p++ {
			out[i] += sp.Port(p).Stats().Forwarded
		}
	}
	return out
}

// Stats aggregates the per-port counters of every switch hop.
type Stats struct {
	// Forwarded, Dropped and Marked sum over every leaf and spine port.
	Forwarded uint64
	Dropped   uint64
	Marked    uint64
	// LeafMaxDepth and SpineMaxDepth are the high-water marks across the
	// respective layer's ports.
	LeafMaxDepth  int
	SpineMaxDepth int
	// Failure-plane tallies, all zero unless ArmFailures armed a
	// schedule. OutageDrops counts frames eaten by a down spine, leaf or
	// trunk; BurstDrops frames lost to the Gilbert–Elliott ingress
	// process; LinkDrops frames refused by a downed host uplink;
	// Rerouted frames steered off their ECMP-primary spine; Degraded
	// frames forced onto the single-path fallback; Transitions the outage
	// state flips applied across every layer.
	OutageDrops uint64
	BurstDrops  uint64
	LinkDrops   uint64
	Rerouted    uint64
	Degraded    uint64
	Transitions uint64
}

// Stats sums the switch-port statistics across the fabric. Host uplink
// ports are excluded (they belong to the sender model, not the fabric);
// read them per host via Uplink.
func (t *Topology) Stats() Stats {
	var out Stats
	for _, l := range t.leaves {
		for i := 0; i < l.Ports(); i++ {
			s := l.Port(i).Stats()
			out.Forwarded += s.Forwarded
			out.Dropped += s.Dropped
			out.Marked += s.Marked
			if s.MaxDepth > out.LeafMaxDepth {
				out.LeafMaxDepth = s.MaxDepth
			}
		}
	}
	for _, sp := range t.spines {
		for i := 0; i < sp.Ports(); i++ {
			s := sp.Port(i).Stats()
			out.Forwarded += s.Forwarded
			out.Dropped += s.Dropped
			out.Marked += s.Marked
			if s.MaxDepth > out.SpineMaxDepth {
				out.SpineMaxDepth = s.MaxDepth
			}
		}
	}
	if t.health != nil {
		hs := t.health.Stats()
		out.OutageDrops = hs.OutageDrops
		out.Rerouted = hs.Rerouted
		out.Degraded = hs.Degraded
		out.Transitions = hs.Transitions
	}
	if t.burst != nil {
		out.BurstDrops = t.burst.Losses
	}
	for h, n := range t.linkDrops {
		out.LinkDrops += n
		out.Transitions += t.linkFlips[h]
	}
	return out
}
