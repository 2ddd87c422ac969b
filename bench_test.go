package netdimm

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark runs a (scaled) version of the
// experiment and reports the figure's key quantities via b.ReportMetric,
// so `go test -bench=. -benchmem` regenerates the paper's rows/series.
// Full-resolution runs are available through cmd/netdimm-sim.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"netdimm/internal/driver"
)

// BenchmarkTable1 exercises constructing the paper's Table 1 system
// configuration (and renders it once for the log).
func BenchmarkTable1(b *testing.B) {
	var tbl string
	for i := 0; i < b.N; i++ {
		tbl = DefaultConfig().Table()
	}
	if len(tbl) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkFig4 regenerates Fig. 4 and reports the 2000B dNIC latency and
// PCIe share.
func BenchmarkFig4(b *testing.B) {
	var rows []Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunFig4WithConfig(DefaultConfig(), []int{10, 60, 200, 500, 1000, 2000}, 100*time.Nanosecond, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.DNIC.Nanoseconds()), "dNIC-2000B-ns")
	b.ReportMetric(last.PCIeShare*100, "pcie-share-%")
}

// BenchmarkFig5 regenerates a three-point Fig. 5 sweep and reports the
// max-pressure bandwidth fraction.
func BenchmarkFig5(b *testing.B) {
	var rows []Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunFig5WithConfig(DefaultConfig(), []time.Duration{time.Second, 500 * time.Nanosecond, 5 * time.Nanosecond}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	base := rows[0].BandwidthGbps
	worst := rows[len(rows)-1].BandwidthGbps
	b.ReportMetric(base, "idle-gbps")
	b.ReportMetric(worst/base*100, "pressured-%")
}

// BenchmarkFig7 regenerates the DMA locality trace and reports the burst
// span.
func BenchmarkFig7(b *testing.B) {
	var pts []Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = RunFig7WithConfig(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(pts) == 0 {
		b.Fatal("empty Fig7 trace")
	}
	// The span of the first burst, derived from the data rather than a
	// hard-coded point index (the trace length depends on model detail).
	first, last := time.Duration(-1), time.Duration(0)
	for _, p := range pts {
		if p.Burst != 0 {
			continue
		}
		if first < 0 {
			first = p.RelTime
		}
		last = p.RelTime
	}
	if first < 0 {
		b.Fatal("Fig7 trace has no burst-0 points")
	}
	b.ReportMetric(float64((last - first).Nanoseconds()), "burst-span-ns")
	b.ReportMetric(float64(len(pts)), "requests")
}

// BenchmarkFig11 regenerates the central latency experiment and reports
// NetDIMM's average reduction against both baselines.
func BenchmarkFig11(b *testing.B) {
	var rows []Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunFig11WithConfig(DefaultConfig(), []int{64, 256, 1024, 1514}, 100*time.Nanosecond, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	var vsD, vsI float64
	for _, r := range rows {
		vsD += r.ReductionVsDNIC
		vsI += r.ReductionVsINIC
	}
	b.ReportMetric(vsD/float64(len(rows))*100, "red-vs-dNIC-%")
	b.ReportMetric(vsI/float64(len(rows))*100, "red-vs-iNIC-%")
}

// BenchmarkFig12a regenerates a scaled cluster replay and reports the
// average per-packet reduction at 25ns and 200ns switch latency. The Seq
// and Par variants pin the worker count so `go test -bench Fig12a` shows
// the fan-out speedup on multi-core hosts.
func BenchmarkFig12a(b *testing.B)    { benchmarkFig12a(b, 1) }
func BenchmarkFig12aPar(b *testing.B) { benchmarkFig12a(b, 0) }

func benchmarkFig12a(b *testing.B, parallelism int) {
	var rows []Fig12aResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunFig12aWithConfig(DefaultConfig(), 200, 3, parallelism)
		if err != nil {
			b.Fatal(err)
		}
	}
	agg := map[time.Duration][]float64{}
	for _, r := range rows {
		agg[r.SwitchLatency] = append(agg[r.SwitchLatency], 1-r.NormVsDNIC)
	}
	for _, sl := range []time.Duration{25 * time.Nanosecond, 200 * time.Nanosecond} {
		var sum float64
		for _, v := range agg[sl] {
			sum += v
		}
		b.ReportMetric(sum/float64(len(agg[sl]))*100, fmt.Sprintf("red-%dns-%%", sl.Nanoseconds()))
	}
}

// BenchmarkFig12b regenerates the interference study and reports the DPI
// worst-case and L3F best-case deltas vs iNIC.
func BenchmarkFig12b(b *testing.B) {
	var rows []Fig12bResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunFig12bWithConfig(DefaultConfig(), 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	var dpiWorst, l3fBest float64
	for _, r := range rows {
		if r.Function == DeepInspect && r.Norm-1 > dpiWorst {
			dpiWorst = r.Norm - 1
		}
		if r.Function == L3Forwarding && 1-r.Norm > l3fBest {
			l3fBest = 1 - r.Norm
		}
	}
	b.ReportMetric(dpiWorst*100, "DPI-worst-%")
	b.ReportMetric(l3fBest*100, "L3F-best-%")
}

// BenchmarkHeadline regenerates the abstract's summary numbers.
func BenchmarkHeadline(b *testing.B) {
	var h HeadlineResult
	for i := 0; i < b.N; i++ {
		var err error
		h, err = RunHeadlineWithConfig(DefaultConfig(), 100, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.AvgReductionVsDNIC*100, "vs-dNIC-%")
	b.ReportMetric(h.AvgReductionVsINIC*100, "vs-iNIC-%")
}

// BenchmarkOneWayPacket measures the simulator's own throughput on the
// core single-packet path (not a paper figure; a harness health metric).
func BenchmarkOneWayPacket(b *testing.B) {
	cfg := DefaultConfig()
	tx, err := NewNetDIMMWithConfig(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	rx, err := NewNetDIMMWithConfig(cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OneWayLatencyWithConfig(cfg, tx, rx, 1514, 100*time.Nanosecond); err != nil {
			b.Fatal(err)
		}
	}
}

// warmOneWay builds a NetDIMM→NetDIMM endpoint pair and sends 200 1514B
// packets, so the budgets below measure the steady state: recycled nMC
// entries and transfers, and grown queues and event heaps.
func warmOneWay(t *testing.T) (tx, rx *Machine, send func()) {
	cfg := DefaultConfig()
	tx, err := NewNetDIMMWithConfig(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rx, err = NewNetDIMMWithConfig(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	send = func() {
		if _, err := OneWayLatencyWithConfig(cfg, tx, rx, 1514, 100*time.Nanosecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		send()
	}
	return tx, rx, send
}

// TestOneWayPacketAllocs holds BenchmarkOneWayPacket's path to zero heap
// allocations: once the devices are warm, a NetDIMM→NetDIMM 1514B one-way
// packet allocates nothing. The nMC recycles its queue entries and
// transfers, a clone of never-written data creates no page, the breakdown
// is a fixed array, and every device completion on the driver's step
// chain — the TX fetch, the RX delivery, the register-kicked clone and
// the nCache header read — is a method value bound once per driver,
// register file or device.
func TestOneWayPacketAllocs(t *testing.T) {
	_, _, send := warmOneWay(t)
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("allocs per one-way packet = %v, want 0", avg)
	}
}

// TestOneWayPacketEvents holds the device path to its event budget: a warm
// 1514B NetDIMM→NetDIMM packet fires at most 26 events on the sender's
// engine (TX) and 28 on the receiver's (RX). The nMC schedules one pick
// per line but one completion per packet transfer, not one per line.
// Event counts are deterministic, so the budget is exact.
func TestOneWayPacketEvents(t *testing.T) {
	tx, rx, send := warmOneWay(t)
	txEng := tx.impl.(*driver.NetDIMMDriver).Eng
	rxEng := rx.impl.(*driver.NetDIMMDriver).Eng
	for i := 0; i < 200; i++ {
		txFired, rxFired := txEng.Fired(), rxEng.Fired()
		send()
		if n := txEng.Fired() - txFired; n > 26 {
			t.Fatalf("packet %d: %d device events on TX, want <= 26", i, n)
		}
		if n := rxEng.Fired() - rxFired; n > 28 {
			t.Fatalf("packet %d: %d device events on RX, want <= 28", i, n)
		}
	}
}

// BenchmarkNewNetDIMM times building one Table 1 NetDIMM endpoint: device,
// NET_0 zone, prefilled allocCache and driver. A rack sweep builds one per
// host, so this is most of a sweep's set-up.
func BenchmarkNewNetDIMM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewNetDIMMWithConfig(DefaultConfig(), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewNetDIMMAllocs holds BenchmarkNewNetDIMM to its budget: at most
// 128KB in at most 100 heap allocations per endpoint. The zone and the
// allocCache keep a few bytes per (rank, bank, sub-array) bucket and
// nothing per page, so the prefilled 32K pages cost no host memory; the
// device alone is about 25KB.
func TestNewNetDIMMAllocs(t *testing.T) {
	const runs = 20
	build := func() {
		if _, err := NewNetDIMMWithConfig(DefaultConfig(), 1); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("NewNetDIMM: %d B, %d allocs", bytes, allocs)
	if bytes > 128<<10 || allocs > 100 {
		t.Fatalf("NewNetDIMM costs %d B in %d allocs, want <= %d B and <= 100 allocs", bytes, allocs, 128<<10)
	}
}
