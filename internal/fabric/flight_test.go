package fabric

import (
	"testing"

	"netdimm/internal/ethernet"
	"netdimm/internal/fault"
	"netdimm/internal/sim"
)

// layerDrops sums the Dropped counter over the given switches' ports.
func layerDrops(sws []*ethernet.SwitchNode) uint64 {
	var n uint64
	for _, s := range sws {
		for i := 0; i < s.Ports(); i++ {
			n += s.Port(i).Stats().Dropped
		}
	}
	return n
}

// TestNoFlightLeaks drives all-to-all traffic into every drop path of the
// fabric and requires each path to have dropped something and the drained
// topology to hold no flight records: every frame was delivered or
// dropped, and each drop freed its record.
func TestNoFlightLeaks(t *testing.T) {
	outage := func(o fault.Outage) func(*Topology) {
		return func(topo *Topology) {
			o.StartNs, o.EndNs = 2000, 6000 // opens with frames mid-flight
			if _, err := topo.ArmFailures(fault.Schedule{Outages: []fault.Outage{o}}, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name    string
		buffer  int
		arm     func(*Topology)
		dropped func(*Topology) uint64
	}{
		{"uplink tail drop", 2, nil, func(topo *Topology) uint64 {
			var n uint64
			for h := 0; h < topo.Hosts(); h++ {
				n += topo.Uplink(h).Stats().Dropped
			}
			return n
		}},
		{"leaf tail drop", 1, nil, func(topo *Topology) uint64 { return layerDrops(topo.leaves) }},
		{"spine tail drop", 1, nil, func(topo *Topology) uint64 { return layerDrops(topo.spines) }},
		{"injected port drop", 64, func(topo *Topology) {
			topo.InjectFaults(fault.NewInjector(fault.Spec{PortDropProb: 0.3}, 3))
		}, func(topo *Topology) uint64 { return topo.Stats().Dropped }},
		{"burst loss", 64, func(topo *Topology) {
			sched := fault.Schedule{Burst: fault.Burst{GoodLossProb: 0.05, BadLossProb: 0.8, GoodToBad: 0.2, BadToGood: 0.3}}
			if _, err := topo.ArmFailures(sched, 1); err != nil {
				t.Fatal(err)
			}
		}, func(topo *Topology) uint64 { return topo.Stats().BurstDrops }},
		{"link outage", 64, outage(fault.Outage{Kind: fault.OutageLink, Index: 2}),
			func(topo *Topology) uint64 { return topo.Stats().LinkDrops }},
		{"spine outage", 64, outage(fault.Outage{Kind: fault.OutageSpine, Index: 1}),
			func(topo *Topology) uint64 { return topo.Stats().OutageDrops }},
		{"leaf outage", 64, outage(fault.Outage{Kind: fault.OutageLeaf, Index: 1}),
			func(topo *Topology) uint64 { return topo.Stats().OutageDrops }},
		{"trunk outage", 64, outage(fault.Outage{Kind: fault.OutageTrunk, Leaf: 2, Index: 0}),
			func(topo *Topology) uint64 { return topo.Stats().OutageDrops }},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			topo := New(SingleEngine(eng), ethernet.LinkGbps(40), 100*sim.Nanosecond,
				Spec{Leaves: 3, Spines: 2}, 9, c.buffer)
			if c.arm != nil {
				c.arm(topo)
			}
			delivered := 0
			count := func(ethernet.Frame) { delivered++ }
			id := uint64(0)
			for round := 0; round < 4; round++ {
				for src := 0; src < topo.Hosts(); src++ {
					for dst := 0; dst < topo.Hosts(); dst++ {
						id++
						src, dst, f := src, dst, ethernet.Frame{ID: id, Bytes: 1500}
						eng.At(sim.Time(round)*sim.Microsecond, func() { topo.Inject(src, dst, f, count) })
					}
				}
			}
			eng.Run()
			if got := c.dropped(topo); got == 0 {
				t.Fatalf("no drops on this path (%d delivered): the case does not exercise it", delivered)
			}
			if n := topo.InFlight(); n != 0 {
				t.Fatalf("%d flight records left after the engine drained", n)
			}
		})
	}
}

// A delivery callback that injects again reuses the flight record the
// delivery just freed: a request/response ping-pong holds one record.
func TestDeliveredMayInjectAgain(t *testing.T) {
	eng := sim.NewEngine()
	topo := New(SingleEngine(eng), ethernet.LinkGbps(40), 100*sim.Nanosecond,
		Spec{Leaves: 2, Spines: 2}, 4, 8)
	hops := 0
	var bounce func(ethernet.Frame)
	bounce = func(f ethernet.Frame) {
		if hops++; hops < 10 {
			if topo.InFlight() != 0 {
				t.Fatalf("hop %d: %d records held during delivery, want 0", hops, topo.InFlight())
			}
			topo.Inject(int(f.ID%4), int((f.ID+3)%4), ethernet.Frame{ID: f.ID + 3, Bytes: 64}, bounce)
		}
	}
	topo.Inject(0, 3, ethernet.Frame{ID: 0, Bytes: 64}, bounce)
	eng.Run()
	if hops != 10 || topo.InFlight() != 0 || len(topo.flights) != 1 {
		t.Fatalf("hops = %d, in flight = %d, slab = %d; want 10, 0, 1", hops, topo.InFlight(), len(topo.flights))
	}
}
