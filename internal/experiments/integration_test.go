package experiments

// Integration tests: end-to-end flows across the driver, core device and
// fabric — the "does the whole machine behave like a machine" suite,
// complementing the per-figure shape tests.

import (
	"testing"

	"netdimm/internal/driver"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
)

// A NetDIMM receive runs Alg. 1 end to end on the device: every clone
// from the RX DMA buffer to its sub-array-affine SKB buffer runs in FPM,
// and the header read that follows hits nCache, so the clone neither
// lands on nor evicts the header it just delivered.
func TestRXClonesFPMAndHitsHeader(t *testing.T) {
	rx, err := spec.TableOne().MustDerive().NewNetDIMM(32)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range []int{64, 256, 1024, 1514} {
		rx.RX(nic.Packet{ID: uint64(i), Size: size})
	}
	s := rx.Stats()
	if s.ClonesFPM != 4 || s.HeaderCacheHits != 4 {
		t.Fatalf("rx stats = %+v", s)
	}
}

// One-way latency via the composed OneWay matches the sum of independent
// TX + wire + RX (the composition is exact, not approximate).
func TestOneWayComposition(t *testing.T) {
	d := spec.TableOne().MustDerive()
	fabric := d.Fabric(100 * sim.Nanosecond)
	p := nic.Packet{Size: 512}
	dn := d.NewDNIC(false)
	got := driver.OneWay(dn, dn, p, fabric, nil).Total()
	want := dn.TX(p).Total() + fabric.DirectWireTime(512) + dn.RX(p).Total()
	if got != want {
		t.Fatalf("OneWay %v != composed %v", got, want)
	}
}

// Breakdown components always sum to the total (no unaccounted time).
func TestBreakdownAccounting(t *testing.T) {
	nd, err := spec.TableOne().MustDerive().NewNetDIMM(41)
	if err != nil {
		t.Fatal(err)
	}
	fabric := spec.TableOne().MustDerive().Fabric(50 * sim.Nanosecond)
	for _, size := range []int{64, 1514} {
		b := driver.OneWay(nd, nd, nic.Packet{Size: size}, fabric, nil)
		var sum sim.Time
		for _, c := range stats.Components {
			sum += b[c]
		}
		if sum != b.Total() {
			t.Fatalf("size %d: components %v != total %v", size, sum, b.Total())
		}
	}
}
