package experiments

// Integration tests: end-to-end flows across the driver, core device,
// functional memory, network functions and fabric — the "does the whole
// machine behave like a machine" suite, complementing the per-figure
// shape tests.

import (
	"bytes"
	"testing"

	"netdimm/internal/driver"
	"netdimm/internal/netfunc"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
)

// buildFrame makes an Ethernet+IPv4-ish frame with the given destination
// address and payload.
func buildFrame(dst uint32, payload string, size int) []byte {
	f := make([]byte, size)
	f[30], f[31], f[32], f[33] = byte(dst>>24), byte(dst>>16), byte(dst>>8), byte(dst)
	copy(f[34:], payload)
	return f
}

// A frame transmitted by one NetDIMM machine and received by another must
// arrive byte-identical after DMA into local DRAM, the in-memory clone,
// and delivery to the application.
func TestEndToEndDataIntegrity(t *testing.T) {
	tx, err := spec.TableOne().MustDerive().NewNetDIMM(31)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := spec.TableOne().MustDerive().NewNetDIMM(32)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range []int{64, 256, 1024, 1514} {
		frame := buildFrame(0x0a000001, "payload-integrity-check", size)
		for j := 34 + 23; j < size; j++ {
			frame[j] = byte(i*7 + j) // deterministic filler
		}
		p := nic.Packet{ID: uint64(i), Size: size}

		_, wire := tx.TXData(p, frame)
		if !bytes.Equal(wire, frame) {
			t.Fatalf("size %d: TX corrupted the frame", size)
		}
		_, delivered := rx.RXData(p, wire)
		if !bytes.Equal(delivered, frame) {
			t.Fatalf("size %d: RX clone corrupted the frame", size)
		}
	}
	// The receiving driver's clones were all FPM and the headers hit
	// nCache — the timing machinery ran alongside the data.
	s := rx.Stats()
	if s.ClonesFPM != 4 || s.HeaderCacheHits != 4 {
		t.Fatalf("rx stats = %+v", s)
	}
}

// The COPY_NEEDED slow path must also preserve data.
func TestSlowPathDataIntegrity(t *testing.T) {
	tx, err := spec.TableOne().MustDerive().NewNetDIMM(33)
	if err != nil {
		t.Fatal(err)
	}
	tx.CopyNeeded = true
	frame := buildFrame(0x0a000001, "slow path bytes", 200)
	_, wire := tx.TXData(nic.Packet{Size: 200}, frame)
	if !bytes.Equal(wire, frame) {
		t.Fatal("COPY_NEEDED path corrupted the frame")
	}
}

// A full forwarding pipeline: frames received on a NetDIMM, inspected by
// the real DPI engine, and forwarded or dropped by the real LPM table.
func TestNetDIMMForwardingPipeline(t *testing.T) {
	rx, err := spec.TableOne().MustDerive().NewNetDIMM(34)
	if err != nil {
		t.Fatal(err)
	}
	table := netfunc.NewTable()
	table.Insert(netfunc.Route{Prefix: 0x0a000000, Bits: 8, NextHop: 1})
	table.Insert(netfunc.Route{Prefix: 0x0a010000, Bits: 16, NextHop: 2})
	matcher, err := netfunc.NewMatcher("forbidden")
	if err != nil {
		t.Fatal(err)
	}
	dpi := &netfunc.Inspector{Matcher: matcher, Table: table}

	cases := []struct {
		dst     uint32
		payload string
		drop    bool
		hop     int
	}{
		{0x0a000005, "normal traffic", false, 1},
		{0x0a010005, "more normal traffic", false, 2},
		{0x0a000005, "carries forbidden content", true, 0},
	}
	for i, c := range cases {
		frame := buildFrame(c.dst, c.payload, 128)
		_, delivered := rx.RXData(nic.Packet{ID: uint64(i), Size: 128}, frame)
		dec, err := dpi.Inspect(delivered)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if c.drop && dec.Verdict != netfunc.Dropped {
			t.Fatalf("case %d: should have dropped", i)
		}
		if !c.drop && (dec.Verdict != netfunc.Forwarded || dec.NextHop != c.hop) {
			t.Fatalf("case %d: decision %+v, want hop %d", i, dec, c.hop)
		}
	}
}

// One-way latency via the composed OneWay matches the sum of independent
// TX + wire + RX (the composition is exact, not approximate).
func TestOneWayComposition(t *testing.T) {
	d := spec.TableOne().MustDerive()
	fabric := d.Fabric(100 * sim.Nanosecond)
	p := nic.Packet{Size: 512}
	dn := d.NewDNIC(false)
	got := driver.OneWay(dn, dn, p, fabric).Total()
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
		b := driver.OneWay(nd, nd, nic.Packet{Size: size}, fabric)
		var sum sim.Time
		for _, c := range stats.Components {
			sum += b[c]
		}
		if sum != b.Total() {
			t.Fatalf("size %d: components %v != total %v", size, sum, b.Total())
		}
	}
}
