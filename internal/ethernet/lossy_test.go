package ethernet

import (
	"testing"

	"netdimm/internal/fault"
	"netdimm/internal/sim"
)

func testFabric() Fabric {
	return NewFabricWith(LinkGbps(40), 100*sim.Nanosecond)
}

func TestLossyPathNilInjectorAlwaysDelivers(t *testing.T) {
	lp := LossyPath{Fabric: testFabric()}
	for i := 0; i < 50; i++ {
		out, wire := lp.Attempt(1514)
		if out != fault.Delivered {
			t.Fatalf("attempt %d: outcome %v, want delivered", i, out)
		}
		if wire != lp.Fabric.DirectWireTime(1514) {
			t.Fatalf("wire = %v, want the fabric's direct wire time %v", wire, lp.Fabric.DirectWireTime(1514))
		}
	}
}

func TestLossyPathZeroSpecMatchesNil(t *testing.T) {
	lp := LossyPath{Fabric: testFabric(), Inj: fault.NewInjector(fault.Spec{}, 3)}
	for i := 0; i < 50; i++ {
		if out, _ := lp.Attempt(64); out != fault.Delivered {
			t.Fatalf("zero spec produced %v", out)
		}
	}
}

func TestLossyPathOutcomeCosts(t *testing.T) {
	fab := testFabric()
	cases := []struct {
		name string
		spec fault.Spec
		loss float64
		want fault.Outcome
		wire sim.Time
	}{
		{"drop", fault.Spec{}, 1, fault.Dropped, 0},
		{"portDrop", fault.Spec{PortDropProb: 1}, 0, fault.Dropped, fab.Link.TransferTime(1514)},
		{"corrupt", fault.Spec{CorruptProb: 1}, 0, fault.Corrupted, fab.DirectWireTime(1514)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lp := LossyPath{Fabric: fab, Inj: fault.NewInjector(tc.spec, 1), LossRate: tc.loss}
			out, wire := lp.Attempt(1514)
			if out != tc.want || wire != tc.wire {
				t.Errorf("Attempt = (%v, %v), want (%v, %v)", out, wire, tc.want, tc.wire)
			}
		})
	}
}

// The loss rate actually realised over many attempts must track the
// configured probability (the stream is uniform), and identical seeds must
// reproduce the identical trace.
func TestLossyPathRateAndDeterminism(t *testing.T) {
	a := LossyPath{Fabric: testFabric(), Inj: fault.NewInjector(fault.Spec{}, 11), LossRate: 0.2}
	b := LossyPath{Fabric: testFabric(), Inj: fault.NewInjector(fault.Spec{}, 11), LossRate: 0.2}
	const n = 5000
	drops := 0
	for i := 0; i < n; i++ {
		oa, _ := a.Attempt(256)
		ob, _ := b.Attempt(256)
		if oa != ob {
			t.Fatalf("attempt %d diverged between identical seeds", i)
		}
		if oa == fault.Dropped {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.15 || rate > 0.25 {
		t.Errorf("realised drop rate %.3f, want ~0.2", rate)
	}
}

// An injected port drop is tail-dropped at the switch egress port and
// counted in the port statistics alongside real buffer drops.
func TestPortInjectedDrop(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPort(eng, LinkGbps(40), 64)
	p.InjectFaults(fault.NewInjector(fault.Spec{PortDropProb: 1}, 5))
	delivered := 0
	if ok := p.Send(Frame{ID: 1, Bytes: 64}, func(Frame) { delivered++ }); ok {
		t.Fatal("Send accepted a frame the injector must drop")
	}
	eng.Run()
	if delivered != 0 {
		t.Fatal("injected-drop frame was delivered")
	}
	if s := p.Stats(); s.Dropped != 1 || s.Forwarded != 0 {
		t.Errorf("stats = %+v, want 1 drop, 0 forwarded", s)
	}
}

func TestSwitchNodeInjectFaults(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSwitchNode(eng, LinkGbps(40), 2, 8)
	inj := fault.NewInjector(fault.Spec{PortDropProb: 1}, 2)
	s.InjectFaults(inj)
	for port := 0; port < 2; port++ {
		if s.Port(port).Send(Frame{ID: uint64(port), Bytes: 64}, nil) {
			t.Fatalf("port %d accepted a frame the injector must drop", port)
		}
	}
	eng.Run()
	if got := inj.Counters.PortDrops; got != 2 {
		t.Errorf("PortDrops = %d, want 2 (one per egress port)", got)
	}
}
