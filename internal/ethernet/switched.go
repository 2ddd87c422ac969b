package ethernet

import (
	"fmt"

	"netdimm/internal/fault"
	"netdimm/internal/sim"
)

// The analytic Fabric covers the paper's experiments (uncongested paths).
// This file is the event-driven extension: output-queued switch ports with
// finite buffers, so congestion effects — queueing delay and tail drops
// under incast — are simulated rather than assumed away.

// Frame is one frame in flight through the switched fabric.
type Frame struct {
	// ID is the sender's tag for the frame; ports and fabric.Topology
	// carry it unchanged and never read it.
	ID    uint64
	Bytes int
	// ECN is the congestion-experienced mark. A port whose queue is at or
	// beyond its ECN threshold sets it at enqueue; the bit is sticky, so a
	// mark anywhere along a multi-hop path survives to the receiver (the
	// IP-ECN CE semantics DCTCP-style senders react to).
	ECN bool
	// Flight is an opaque tag for whoever routes the frame across several
	// ports: fabric.Topology stores the index of the frame's flight record
	// here and reads it back in each hop's continuation. Ports carry it
	// unchanged.
	Flight int32
	// Enqueued is when the frame entered the current port's queue.
	Enqueued sim.Time
}

// PortStats counts egress-port events.
type PortStats struct {
	Forwarded uint64
	Dropped   uint64
	// Marked counts frames that received a fresh ECN mark at this port
	// (frames arriving already marked are not recounted).
	Marked uint64
	// QueueDelaySum accumulates time forwarded frames spent waiting behind
	// other frames. It advances at transmission completion, the same
	// instant Forwarded does, so the AvgQueueDelay division is consistent
	// whenever it is read — not only after the queue drains.
	QueueDelaySum sim.Time
	MaxDepth      int
}

// AvgQueueDelay returns the mean queueing delay of forwarded frames, or 0
// when no frame has completed transmission yet.
func (s PortStats) AvgQueueDelay() sim.Time {
	if s.Forwarded == 0 {
		return 0
	}
	return s.QueueDelaySum / sim.Time(s.Forwarded)
}

// Port is an output-queued switch egress port: frames serialise onto the
// link one at a time; arrivals beyond the buffer are tail-dropped.
//
// A frame's trip through the port allocates nothing once the port is warm:
// the queue is a ring whose head is the frame on the wire, the wire-done
// event is one method value, and frames off the wire wait out the link's
// PHY latency — the same for every frame — in a DelayLine.
type Port struct {
	eng      *sim.Engine
	link     Link
	capacity int // frames of buffering

	queue  sim.FIFO[queuedFrame] // the head is on the wire
	waited sim.Time              // the head's time in the queue
	sentFn func()                // p.sent, bound on the first Send
	phy    sim.DelayLine[queuedFrame]

	ecnAt int // queue depth at/beyond which enqueues are ECN-marked; 0 = off
	stats PortStats
	inj   *fault.Injector
}

type queuedFrame struct {
	frame   Frame
	deliver func(Frame)
}

func deliverFrame(q queuedFrame) { q.deliver(q.frame) }

// NewPort returns a port over the given link with a buffer of capacity
// frames.
func NewPort(eng *sim.Engine, link Link, capacity int) *Port {
	if capacity <= 0 {
		panic(fmt.Sprintf("ethernet: port capacity %d", capacity))
	}
	p := &Port{eng: eng, link: link, capacity: capacity}
	p.phy.Init(eng, link.PHYLatency, deliverFrame)
	return p
}

// Stats returns a copy of the port statistics.
func (p *Port) Stats() PortStats { return p.stats }

// InjectFaults attaches a fault injector: each enqueue additionally draws
// the injected tail-drop decision (modelling congestion or a flaky port
// ASIC) on top of the real buffer-occupancy drop.
func (p *Port) InjectFaults(inj *fault.Injector) { p.inj = inj }

// SetECNThreshold arms ECN marking: a frame enqueued when the port already
// holds at least `frames` frames (including the one on the wire) leaves
// with its ECN bit set. 0 disables marking (the default).
func (p *Port) SetECNThreshold(frames int) {
	if frames < 0 {
		panic(fmt.Sprintf("ethernet: ECN threshold %d", frames))
	}
	p.ecnAt = frames
}

// Depth returns the current queue occupancy (including the frame on the
// wire).
func (p *Port) Depth() int { return p.queue.Len() }

// Send enqueues a frame for transmission. deliver fires when the last bit
// leaves the wire (plus PHY latency). A full buffer tail-drops the frame
// and returns false.
func (p *Port) Send(f Frame, deliver func(Frame)) bool {
	if p.Depth() >= p.capacity {
		p.stats.Dropped++
		return false
	}
	if p.inj != nil && p.inj.PortDrop() {
		p.stats.Dropped++
		return false
	}
	if p.ecnAt > 0 && p.Depth() >= p.ecnAt && !f.ECN {
		f.ECN = true
		p.stats.Marked++
	}
	q := p.queue.Tail()
	q.frame, q.deliver = f, deliver
	q.frame.Enqueued = p.eng.Now()
	if d := p.Depth(); d > p.stats.MaxDepth {
		p.stats.MaxDepth = d
	}
	if p.queue.Len() == 1 { // the port was idle
		p.transmit()
	}
	return true
}

// transmit puts the queue head on the wire.
func (p *Port) transmit() {
	f := &p.queue.Head().frame
	p.waited = p.eng.Now() - f.Enqueued
	if p.sentFn == nil {
		p.sentFn = p.sent
	}
	p.eng.Schedule(p.link.SerializeTime(f.Bytes), p.sentFn)
}

// sent runs when the head's last bit leaves the port: it counts the
// forward, starts the PHY latency toward the receiver (if any) and puts
// the next frame on the wire.
func (p *Port) sent() {
	p.stats.Forwarded++
	p.stats.QueueDelaySum += p.waited
	if q := p.queue.Head(); q.deliver != nil {
		p.phy.Push(*q)
	}
	p.queue.Drop()
	if p.queue.Len() > 0 {
		p.transmit()
	}
}

// SwitchNode is an event-driven switch's set of egress ports. The switching
// latency in front of them belongs to the caller (fabric.Topology).
type SwitchNode struct {
	ports []*Port
}

// NewSwitchNode builds a switch with n egress ports of the given buffer
// capacity.
func NewSwitchNode(eng *sim.Engine, link Link, n, portCapacity int) *SwitchNode {
	if n <= 0 {
		panic("ethernet: switch needs ports")
	}
	s := &SwitchNode{ports: make([]*Port, n)}
	for i := range s.ports {
		s.ports[i] = NewPort(eng, link, portCapacity)
	}
	return s
}

// Port returns egress port i.
func (s *SwitchNode) Port(i int) *Port { return s.ports[i] }

// InjectFaults attaches a fault injector to every egress port.
func (s *SwitchNode) InjectFaults(inj *fault.Injector) {
	for _, p := range s.ports {
		p.InjectFaults(inj)
	}
}

// Ports returns the number of egress ports.
func (s *SwitchNode) Ports() int { return len(s.ports) }

// SetECNThreshold arms ECN marking on every egress port.
func (s *SwitchNode) SetECNThreshold(frames int) {
	for _, p := range s.ports {
		p.SetECNThreshold(frames)
	}
}
