package driver

import (
	"testing"

	"netdimm/internal/nic"
	"netdimm/internal/pcie"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
)

// The PCIe share of a dNIC transfer shrinks as packets grow: fixed
// transaction latencies amortise while copies and wire time scale (the
// pcie.overh trend of Fig. 4).
func TestPCIeShareDeclinesWithSize(t *testing.T) {
	d := NewDNICMachine(true) // zcpy isolates the PCIe trend from copies
	var prev float64 = 1.1
	for _, size := range []int{10, 200, 2000, 8000} {
		p := pkt(size)
		total := OneWay(d, d, p, fabric(), nil).Total()
		share := d.PCIeShare(p, total)
		if share >= prev {
			t.Fatalf("size %d: share %.3f did not decline from %.3f", size, share, prev)
		}
		prev = share
	}
}

func TestHWDriverZcpyComponents(t *testing.T) {
	z := NewINICMachine(true)
	b := z.TX(pkt(1514)).Plus(z.RX(pkt(1514)))
	// Zero copy still pays SKB allocation and pinning.
	if b[stats.TxCopy] <= 0 || b[stats.RxCopy] <= 0 {
		t.Fatal("zcpy should retain buffer-management costs")
	}
	// But both are size independent.
	b2 := z.TX(pkt(64)).Plus(z.RX(pkt(64)))
	if b[stats.TxCopy] != b2[stats.TxCopy] || b[stats.RxCopy] != b2[stats.RxCopy] {
		t.Fatal("zcpy copy components should not scale with size")
	}
}

// Driver components never go negative and every HWDriver component is
// non-negative across the size range.
func TestComponentsNonNegative(t *testing.T) {
	machines := []Machine{
		NewDNICMachine(false), NewDNICMachine(true),
		NewINICMachine(false), NewINICMachine(true),
	}
	for _, m := range machines {
		for _, size := range []int{1, 64, 1514, 9000} {
			for _, b := range []stats.Breakdown{m.TX(pkt(size)), m.RX(pkt(size))} {
				for _, c := range stats.Components {
					if b[c] < 0 {
						t.Fatalf("%s size %d: component %s negative", m.Name(), size, c.String())
					}
				}
			}
		}
	}
}

// The NetDIMM RX path's latency is dominated by fixed costs, not size:
// the slope from 64B to MTU is far below a memcpy's.
func TestNetDIMMRXSizeSlope(t *testing.T) {
	nd, err := NewNetDIMMMachine(53)
	if err != nil {
		t.Fatal(err)
	}
	small := nd.RX(pkt(64)).Total()
	big := nd.RX(pkt(1514)).Total()
	slope := float64(big-small) / 1450.0 // ps per byte
	memcpySlope := float64(DefaultCosts().CopyTime(1514)-DefaultCosts().CopyTime(64)) / 1450.0
	if slope >= memcpySlope {
		t.Fatalf("NetDIMM RX slope %.1f ps/B should be below memcpy slope %.1f ps/B",
			slope, memcpySlope)
	}
}

// A NetDIMM packet's DMA time grows with its size past the nMC queue
// cap: a jumbo frame's lines beyond the 64 a queue holds wait for slots
// instead of being dropped.
func TestNetDIMMDMAGrowsPastQueueCap(t *testing.T) {
	var prevTX, prevRX sim.Time
	for i, size := range []int{4096, 8000, 9000} {
		tx, err := NewNetDIMMMachine(uint64(70 + 2*i))
		if err != nil {
			t.Fatal(err)
		}
		rx, err := NewNetDIMMMachine(uint64(71 + 2*i))
		if err != nil {
			t.Fatal(err)
		}
		txDMA, rxDMA := tx.TX(pkt(size))[stats.TxDMA], rx.RX(pkt(size))[stats.RxDMA]
		if txDMA <= prevTX || rxDMA <= prevRX {
			t.Fatalf("%d B: txDMA %v, rxDMA %v; want both above the smaller size's %v and %v", size, txDMA, rxDMA, prevTX, prevRX)
		}
		prevTX, prevRX = txDMA, rxDMA
	}
}

// TestHWDriverAllocs holds the baseline drivers to zero heap allocations
// per packet: a dNIC, dNIC.zcpy and iNIC endpoint's TX and RX are pure
// arithmetic over the NIC model, whose doorbell cost comes without boxing
// a RegisterBus.
func TestHWDriverAllocs(t *testing.T) {
	p := pkt(1514)
	for _, m := range []*HWDriver{NewDNICMachine(false), NewDNICMachine(true), NewINICMachine(false)} {
		var sink stats.Breakdown
		send := func() { sink = m.TX(p).Plus(m.RX(p)) }
		send()
		if avg := testing.AllocsPerRun(200, send); avg != 0 {
			t.Errorf("%s: %v allocs per TX+RX, want 0", m.Name(), avg)
		}
		if sink.Total() <= 0 {
			t.Fatalf("%s: empty breakdown", m.Name())
		}
	}
}

// TestHWDriverPureInSize checks the precondition of pricing a dNIC or iNIC
// endpoint once per packet size instead of once per packet (the Fig. 12(a)
// cell does): with no recorder and a PCIe link with no observer, TX and RX
// breakdowns depend on the packet's size alone. A second machine is called
// over sizes 0–9000 in shuffled order, with random IDs and birth times,
// RX before TX on every other pass, and must match a reference machine
// called once per size in ascending order with zero IDs and birth times.
func TestHWDriverPureInSize(t *testing.T) {
	const maxSize = 9000
	gen3 := func(zeroCopy bool) *HWDriver {
		return NewMachine(nic.NewDNICWith(pcie.NewLink(pcie.Gen3, 8)), DefaultCosts(), zeroCopy)
	}
	r := sim.NewRand(7)
	for _, zeroCopy := range []bool{false, true} {
		for _, mk := range []func(bool) *HWDriver{NewDNICMachine, gen3, NewINICMachine} {
			ref, m := mk(zeroCopy), mk(zeroCopy)
			want := make([][2]stats.Breakdown, maxSize+1)
			for size := range want {
				want[size] = [2]stats.Breakdown{ref.TX(pkt(size)), ref.RX(pkt(size))}
			}
			order := make([]int, maxSize+1)
			for i := range order {
				order[i] = i
			}
			for pass := 0; pass < 3; pass++ {
				for i := len(order) - 1; i > 0; i-- {
					j := r.Intn(i + 1)
					order[i], order[j] = order[j], order[i]
				}
				for _, size := range order {
					p := nic.Packet{ID: r.Uint64(), Size: size, Born: sim.Time(r.Int63n(1 << 50))}
					var tx, rx stats.Breakdown
					if pass%2 == 0 {
						tx, rx = m.TX(p), m.RX(p)
					} else {
						rx, tx = m.RX(p), m.TX(p)
					}
					if tx != want[size][0] || rx != want[size][1] {
						t.Fatalf("%s pass %d size %d ID %d born %v: TX %v RX %v, want TX %v RX %v",
							m.Name(), pass, size, p.ID, p.Born, tx, rx, want[size][0], want[size][1])
					}
				}
			}
		}
	}
}
