package fabric

import (
	"strings"
	"testing"

	"netdimm/internal/ethernet"
	"netdimm/internal/fault"
	"netdimm/internal/sim"
)

// failRig builds a 2-leaf/2-spine clos with 8 hosts on one engine.
func failRig(t *testing.T) (*sim.Engine, *Topology) {
	t.Helper()
	eng := sim.NewEngine()
	topo := New(SingleEngine(eng), ethernet.LinkGbps(40), 100*sim.Nanosecond,
		Spec{Leaves: 2, Spines: 2}, 8, 32)
	return eng, topo
}

func spineWindow(spine, startNs, endNs int) fault.Schedule {
	return fault.Schedule{Outages: []fault.Outage{
		{Kind: fault.OutageSpine, Index: spine, StartNs: startNs, EndNs: endNs},
	}}
}

// A spine outage covering the whole run: every cross-leaf flow whose ECMP
// primary is the down spine re-hashes onto the survivor and still
// delivers; the dead spine forwards nothing.
func TestSpineOutageFailsOver(t *testing.T) {
	// Baseline first: which spines does the un-failed fabric use?
	eng0, topo0 := failRig(t)
	for src := 0; src < 4; src++ {
		for dst := 4; dst < 8; dst++ {
			topo0.Inject(src, dst, ethernet.Frame{ID: uint64(src*8 + dst), Bytes: 256}, func(ethernet.Frame) {})
		}
	}
	eng0.Run()
	base := topo0.PerSpineForwarded()
	if base[0] == 0 || base[1] == 0 {
		t.Fatalf("baseline ECMP uses only one spine (%v); the failover test needs both", base)
	}

	eng, topo := failRig(t)
	if _, err := topo.ArmFailures(spineWindow(0, 0, 1_000_000), 1); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for src := 0; src < 4; src++ {
		for dst := 4; dst < 8; dst++ {
			topo.Inject(src, dst, ethernet.Frame{ID: uint64(src*8 + dst), Bytes: 256}, func(ethernet.Frame) { delivered++ })
		}
	}
	eng.Run()
	if delivered != 16 {
		t.Fatalf("delivered %d of 16 cross-leaf frames during failover", delivered)
	}
	per := topo.PerSpineForwarded()
	if per[0] != 0 {
		t.Errorf("down spine forwarded %d frames", per[0])
	}
	if per[1] != base[0]+base[1] {
		t.Errorf("survivor forwarded %d, want all %d", per[1], base[0]+base[1])
	}
	s := topo.Stats()
	if s.Rerouted != base[0] {
		t.Errorf("Rerouted = %d, want the %d baseline spine-0 frames", s.Rerouted, base[0])
	}
	if s.OutageDrops != 0 {
		t.Errorf("OutageDrops = %d during pure failover, want 0", s.OutageDrops)
	}
	if s.Transitions != 2 {
		t.Errorf("Transitions = %d, want 2 (the window's down and up flips both ran)", s.Transitions)
	}
	hv := topo.Health()
	if hv == nil {
		t.Fatal("armed topology has no health view")
	}
	if hs := hv.Stats(); hs.FirstReroute < 0 {
		t.Error("FirstReroute unset after rerouting")
	}
}

// A frame already past its routing decision when the spine goes down is
// eaten at the spine, not rerouted — the in-flight loss the ARQ recovers.
func TestSpineOutageEatsInFlightFrame(t *testing.T) {
	link := ethernet.LinkGbps(40)
	hop := link.SerializeTime(256) + link.PHYLatency
	lat := 100 * sim.Nanosecond
	eng := sim.NewEngine()
	topo := New(SingleEngine(eng), link, lat, Spec{Leaves: 2, Spines: 2}, 8, 32)

	// Find a (src, dst) pair routed via spine 0.
	src, dst := -1, -1
	for s := 0; s < 4 && src < 0; s++ {
		for d := 4; d < 8; d++ {
			if topo.SpineFor(s, d) == 0 {
				src, dst = s, d
				break
			}
		}
	}
	if src < 0 {
		t.Fatal("no flow hashes onto spine 0")
	}

	// The frame reaches its leaf (and is routed) at hop+lat; it reaches the
	// spine one more lat+hop later. Open the window in between.
	routed := hop + lat
	startNs := int((routed + lat/2) / sim.Nanosecond)
	if _, err := topo.ArmFailures(spineWindow(0, startNs, startNs+1_000_000), 1); err != nil {
		t.Fatal(err)
	}
	delivered := false
	topo.Inject(src, dst, ethernet.Frame{ID: 1, Bytes: 256}, func(ethernet.Frame) { delivered = true })
	eng.Run()
	if delivered {
		t.Fatal("in-flight frame survived the spine going down under it")
	}
	s := topo.Stats()
	if s.OutageDrops != 1 {
		t.Errorf("OutageDrops = %d, want 1", s.OutageDrops)
	}
	if s.Rerouted != 0 {
		t.Errorf("Rerouted = %d, want 0 — the frame was routed before the window opened", s.Rerouted)
	}
}

// Both trunks out of leaf 0 down: the leaf has no healthy uplink, routing
// enters degraded mode, and cross-leaf frames drop (to be retried by the
// ARQ above) while same-leaf traffic is untouched.
func TestAllTrunksDownDegrades(t *testing.T) {
	eng, topo := failRig(t)
	sched := fault.Schedule{Outages: []fault.Outage{
		{Kind: fault.OutageTrunk, Leaf: 0, Index: 0, StartNs: 0, EndNs: 1_000_000},
		{Kind: fault.OutageTrunk, Leaf: 0, Index: 1, StartNs: 0, EndNs: 1_000_000},
	}}
	if _, err := topo.ArmFailures(sched, 1); err != nil {
		t.Fatal(err)
	}
	cross, local := 0, 0
	topo.Inject(0, 7, ethernet.Frame{ID: 1, Bytes: 256}, func(ethernet.Frame) { cross++ })
	topo.Inject(0, 1, ethernet.Frame{ID: 2, Bytes: 256}, func(ethernet.Frame) { local++ })
	eng.Run()
	if cross != 0 {
		t.Error("cross-leaf frame delivered through a leaf with no uplinks")
	}
	if local != 1 {
		t.Error("same-leaf frame must not be affected by trunk outages")
	}
	s := topo.Stats()
	if s.Degraded != 1 {
		t.Errorf("Degraded = %d, want 1", s.Degraded)
	}
	if s.OutageDrops != 1 {
		t.Errorf("OutageDrops = %d, want 1 (the degraded frame died at the dead trunk)", s.OutageDrops)
	}
}

// Overlapping windows compose by depth: a spine covered by two down
// windows is up again only after both have ended.
func TestOverlappingOutageWindows(t *testing.T) {
	eng, topo := failRig(t)
	sched := fault.Schedule{Outages: []fault.Outage{
		{Kind: fault.OutageSpine, Index: 0, StartNs: 100, EndNs: 300},
		{Kind: fault.OutageSpine, Index: 0, StartNs: 200, EndNs: 500},
	}}
	hv, err := topo.ArmFailures(sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		atNs int
		up   bool
	}
	var got []sample
	for _, atNs := range []int{50, 150, 250, 350, 450, 550} {
		atNs := atNs
		eng.At(sim.Time(atNs)*sim.Nanosecond, func() {
			got = append(got, sample{atNs, hv.SpineUp(0)})
		})
	}
	eng.Run()
	want := map[int]bool{50: true, 150: false, 250: false, 350: false, 450: false, 550: true}
	for _, s := range got {
		if s.up != want[s.atNs] {
			t.Errorf("SpineUp(0) at %dns = %v, want %v", s.atNs, s.up, want[s.atNs])
		}
	}
	if tr := topo.Stats().Transitions; tr != 4 {
		t.Errorf("Transitions = %d, want 4 (two windows, two flips each)", tr)
	}
}

// A link outage is sender-local: Inject refuses the frame while the
// window is open and works again after it closes.
func TestLinkOutageRefusesInject(t *testing.T) {
	eng, topo := failRig(t)
	sched := fault.Schedule{Outages: []fault.Outage{
		{Kind: fault.OutageLink, Index: 0, StartNs: 100, EndNs: 200},
	}}
	if _, err := topo.ArmFailures(sched, 1); err != nil {
		t.Fatal(err)
	}
	results := map[string]bool{}
	delivered := 0
	try := func(label string, atNs int) {
		eng.At(sim.Time(atNs)*sim.Nanosecond, func() {
			results[label] = topo.Inject(0, 1, ethernet.Frame{ID: uint64(atNs), Bytes: 64},
				func(ethernet.Frame) { delivered++ })
		})
	}
	try("before", 50)
	try("during", 150)
	try("after", 250)
	eng.Run()
	if !results["before"] || !results["after"] || results["during"] {
		t.Errorf("Inject accepted = %v, want refusal only during the window", results)
	}
	if delivered != 2 {
		t.Errorf("delivered %d frames, want 2", delivered)
	}
	s := topo.Stats()
	if s.LinkDrops != 1 {
		t.Errorf("LinkDrops = %d, want 1", s.LinkDrops)
	}
	if s.Transitions != 2 {
		t.Errorf("Transitions = %d, want 2 (link down + up)", s.Transitions)
	}
	// Other hosts' uplinks are untouched; a link-only schedule arms no
	// health view.
	if topo.Health() != nil {
		t.Error("link-only schedule must not create a fabric health view")
	}
}

// Stats aggregation under an outage: queue high-water marks keep being
// tracked on the surviving path while the failure tallies accumulate.
func TestStatsAggregationUnderOutage(t *testing.T) {
	eng, topo := failRig(t)
	if _, err := topo.ArmFailures(spineWindow(0, 0, 10_000_000), 1); err != nil {
		t.Fatal(err)
	}
	// An incast burst, all cross-leaf: every frame funnels over spine 1.
	delivered := 0
	for i := 0; i < 12; i++ {
		src := i % 4
		topo.Inject(src, 7, ethernet.Frame{ID: uint64(i), Bytes: 1514}, func(ethernet.Frame) { delivered++ })
	}
	eng.Run()
	s := topo.Stats()
	if delivered == 0 {
		t.Fatal("nothing delivered over the surviving spine")
	}
	if s.SpineMaxDepth == 0 {
		t.Error("surviving spine's high-water mark not tracked under failover")
	}
	if s.LeafMaxDepth == 0 {
		t.Error("leaf high-water mark not tracked under failover")
	}
	if s.Rerouted == 0 {
		t.Error("no reroutes recorded for a half-capacity fabric")
	}
	if s.Forwarded == 0 {
		t.Error("Forwarded not aggregated")
	}
}

func TestArmFailuresValidates(t *testing.T) {
	_, topo := failRig(t)
	cases := []fault.Outage{
		{Kind: fault.OutageSpine, Index: 2, StartNs: 0, EndNs: 10},          // 2 spines: 0,1
		{Kind: fault.OutageLeaf, Index: 5, StartNs: 0, EndNs: 10},           // 2 leaves
		{Kind: fault.OutageLink, Index: 8, StartNs: 0, EndNs: 10},           // 8 hosts: 0..7
		{Kind: fault.OutageTrunk, Leaf: 2, Index: 0, StartNs: 0, EndNs: 10}, // no leaf 2
		{Kind: fault.OutageTrunk, Leaf: 0, Index: 2, StartNs: 0, EndNs: 10}, // no spine 2
	}
	for _, o := range cases {
		_, err := topo.ArmFailures(fault.Schedule{Outages: []fault.Outage{o}}, 1)
		if err == nil || !strings.Contains(err.Error(), "names no element") {
			t.Errorf("ArmFailures(%+v) = %v, want element-range error", o, err)
		}
	}
	// Invalid schedules are rejected before any shape check.
	if _, err := topo.ArmFailures(fault.Schedule{Outages: []fault.Outage{{Kind: "bogus", EndNs: 1}}}, 1); err == nil {
		t.Error("invalid schedule accepted")
	}
	// The zero schedule is a no-op.
	hv, err := topo.ArmFailures(fault.Schedule{}, 1)
	if err != nil || hv != nil {
		t.Errorf("zero schedule: (%v, %v), want (nil, nil)", hv, err)
	}
	if topo.Health() != nil {
		t.Error("zero schedule must leave the topology unarmed")
	}
}

// The burst process drops fabric-ingress frames and keeps its tally in
// Stats; a disabled Burst block arms nothing.
func TestBurstLossAtIngress(t *testing.T) {
	eng, topo := failRig(t)
	sched := fault.Schedule{Burst: fault.Burst{GoodLossProb: 1}} // lose everything
	if _, err := topo.ArmFailures(sched, 1); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 5; i++ {
		topo.Inject(0, 7, ethernet.Frame{ID: uint64(i), Bytes: 64}, func(ethernet.Frame) { delivered++ })
	}
	eng.Run()
	if delivered != 0 {
		t.Fatalf("%d frames survived a certain-loss burst process", delivered)
	}
	if s := topo.Stats(); s.BurstDrops != 5 {
		t.Errorf("BurstDrops = %d, want 5", s.BurstDrops)
	}
}
