package experiments

import (
	"testing"

	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

func TestPrefetchAblation(t *testing.T) {
	rows := PrefetchAblation(spec.TableOne(), 1)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	off, on := rows[0], rows[3]
	if off.Degree != 0 || on.Degree != 4 {
		t.Fatal("degrees wrong")
	}
	// Without the prefetcher, payload reads miss nCache; with it, the
	// paper claims at most ~one miss per packet.
	if off.HitRate > 0.1 {
		t.Fatalf("degree 0 hit rate = %.2f, want ~0", off.HitRate)
	}
	if on.HitRate < 0.7 {
		t.Fatalf("degree 4 hit rate = %.2f, want high", on.HitRate)
	}
	if on.MeanReadLat >= off.MeanReadLat {
		t.Fatalf("prefetching should cut read latency: %v vs %v", on.MeanReadLat, off.MeanReadLat)
	}
}

func TestPrefetchAblationMonotone(t *testing.T) {
	rows := PrefetchAblation(spec.TableOne(), 0)
	for i := 1; i < len(rows); i++ {
		if rows[i].HitRate+0.02 < rows[i-1].HitRate {
			t.Fatalf("hit rate fell with degree: %+v", rows)
		}
	}
}

func TestCloneAblationOrdering(t *testing.T) {
	rows := CloneAblation(spec.TableOne())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// FPM < PSM < GCM, and FPM beats the CPU copy by a wide margin.
	if !(rows[0].PerClone < rows[1].PerClone && rows[1].PerClone < rows[2].PerClone) {
		t.Fatalf("clone mode ordering violated: %+v", rows)
	}
	cpu := rows[3].PerClone
	if rows[0].PerClone*3 > cpu {
		t.Fatalf("FPM %v should be well below a CPU copy %v", rows[0].PerClone, cpu)
	}
}

func TestAllocAblation(t *testing.T) {
	rows, err := AllocAblation(spec.TableOne())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	cacheRow, slowRow, noHint := rows[0], rows[1], rows[2]
	if cacheRow.PerAlloc >= slowRow.PerAlloc {
		t.Fatal("allocCache must beat the slow allocator on the critical path")
	}
	if cacheRow.FPMRate < 0.9 {
		t.Fatalf("affine allocation FPM rate = %.2f, want ~1", cacheRow.FPMRate)
	}
	// Hint-less allocation destroys FPM eligibility.
	if noHint.FPMRate > 0.5 {
		t.Fatalf("no-hint FPM rate = %.2f, should collapse", noHint.FPMRate)
	}
}

func TestHeaderCacheAblation(t *testing.T) {
	rows := HeaderCacheAblation(spec.TableOne(), 0)
	on, off := rows[0], rows[1]
	if on.HitRate < 0.9 {
		t.Fatalf("nCache header hit rate = %.2f, want ~1", on.HitRate)
	}
	if off.HitRate > 0.2 {
		t.Fatalf("disabled-cache hit rate = %.2f, want ~0", off.HitRate)
	}
	if on.HeaderRead >= off.HeaderRead {
		t.Fatalf("nCache should cut header latency: %v vs %v", on.HeaderRead, off.HeaderRead)
	}
}

func TestBandwidthSustained(t *testing.T) {
	rows, err := Bandwidth(spec.TableOne(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper Sec. 5.2: NetDIMM delivers 40Gbps just like the PCIe and
		// integrated NIC models.
		if !r.Sustained() {
			t.Errorf("%s did not sustain line rate: %.1f of %.1f Gbps", r.Arch, r.AchievedGbps, r.OfferedGbps)
		}
	}
	// The NetDIMM's single local channel has ample headroom for 40GbE.
	if rows[0].ChannelHeadroom <= 0 || rows[0].ChannelHeadroom >= 1 {
		t.Errorf("channel headroom = %.2f, want in (0,1)", rows[0].ChannelHeadroom)
	}
	// NetDIMM's per-packet driver work is below the baselines' (no copy).
	if rows[0].PerPacketRx >= rows[1].PerPacketRx {
		t.Errorf("NetDIMM per-packet %v should beat dNIC %v", rows[0].PerPacketRx, rows[1].PerPacketRx)
	}
	_ = sim.Time(0)
}
