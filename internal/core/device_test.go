package core

import (
	"testing"

	"netdimm/internal/sim"
)

func TestPrefetchStopsAtDeviceEnd(t *testing.T) {
	eng, d := newDevice(t)
	// Read near the very end of the local address space: the prefetcher
	// must not issue beyond Size().
	last := d.Size() - 64
	before := d.Stats().Prefetches
	d.HostReadLine(last, nil)
	eng.Run()
	if d.Stats().Prefetches != before {
		t.Fatalf("prefetcher ran past the device end: %d fetches", d.Stats().Prefetches-before)
	}
}

func TestPrefetchSkipsResidentLines(t *testing.T) {
	eng, d := newDevice(t)
	d.ReceivePacket(0x9000, 1514, nil)
	eng.Run()
	// First payload read prefetches lines 2..5; an immediate second read
	// of line 2 (a hit) re-arms the prefetcher, which must skip lines
	// already resident.
	d.HostReadLine(0x9000+64, nil)
	eng.Run()
	p1 := d.Stats().Prefetches
	d.HostReadLine(0x9000+128, nil)
	eng.Run()
	p2 := d.Stats().Prefetches
	if p2-p1 > uint64(d.cfg.PrefetchDegree) {
		t.Fatalf("prefetcher re-fetched resident lines: %d new", p2-p1)
	}
}

func TestHostReadsUnderNNICTraffic(t *testing.T) {
	eng, d := newDevice(t)
	// Saturate the nMC with nNIC receive traffic, then issue a host read:
	// it must still complete (arbitration does not starve the PHY path).
	for i := 0; i < 16; i++ {
		d.ReceivePacket(int64(i)*2048, 1514, nil)
	}
	completed := false
	var lat sim.Time
	d.HostReadLine(1<<20, func(hit bool, l sim.Time) { completed = true; lat = l })
	eng.Run()
	if !completed {
		t.Fatal("host read starved by nNIC traffic")
	}
	if lat <= 0 {
		t.Fatal("missing latency")
	}
}
