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
	"netdimm/internal/netfunc"
	"netdimm/internal/nic"
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
		rows, err = RunFig4WithConfig(DefaultConfig(), []int{10, 60, 200, 500, 1000, 2000}, 1)
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
	b.ReportAllocs()
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
	first, last := Time(-1), Time(0)
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
	b.ReportMetric((last - first).Nanoseconds(), "burst-span-ns")
	b.ReportMetric(float64(len(pts)), "requests")
}

// BenchmarkFig11 regenerates the central latency experiment and reports
// NetDIMM's average reduction against both baselines.
func BenchmarkFig11(b *testing.B) {
	var rows []Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = RunFig11Observed(DefaultConfig(), []int{64, 256, 1024, 1514}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	var vsD, vsI float64
	for _, r := range rows {
		vsD += r.ReductionVsDNIC()
		vsI += r.ReductionVsINIC()
	}
	b.ReportMetric(vsD/float64(len(rows))*100, "red-vs-dNIC-%")
	b.ReportMetric(vsI/float64(len(rows))*100, "red-vs-iNIC-%")
}

// BenchmarkFig12a regenerates a scaled cluster replay and reports the
// average per-packet reduction at 25ns and 200ns switch latency. The Seq
// and Par variants pin the worker count so `go test -bench Fig12a` shows
// the fan-out speedup on multi-core hosts. At 200 packets per cell
// endpoint construction is about a third of the time; the Default variant
// runs the CLI's default packet count on one worker, where the per-packet
// path dominates.
func BenchmarkFig12a(b *testing.B)        { benchmarkFig12a(b, 200, 1) }
func BenchmarkFig12aPar(b *testing.B)     { benchmarkFig12a(b, 200, 0) }
func BenchmarkFig12aDefault(b *testing.B) { benchmarkFig12a(b, 0, 1) }

// benchmarkFig12a runs Fig. 12(a) at packets per cell (0 for the default)
// on parallelism workers.
func benchmarkFig12a(b *testing.B, packets, parallelism int) {
	b.ReportAllocs()
	var rows []Fig12aResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunFig12aWithConfig(DefaultConfig(), packets, 3, parallelism)
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
		if r.Kind == netfunc.DPI && r.Norm()-1 > dpiWorst {
			dpiWorst = r.Norm() - 1
		}
		if r.Kind == netfunc.L3F && 1-r.Norm() > l3fBest {
			l3fBest = 1 - r.Norm()
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

// BenchmarkCollSweep times the collective path: a 16-rank ring allreduce
// of 256KiB per rank over the fabric, one cell per architecture, reporting
// its allocations and NetDIMM's completion time.
func BenchmarkCollSweep(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Collective.PayloadBytes = 256 << 10
	b.ReportAllocs()
	var rows []CollSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunCollSweepWithConfig(cfg, []int{16}, []string{"allreduce"}, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Arch == "NetDIMM" {
			b.ReportMetric(float64(r.Completion.Nanoseconds())/1e3, "NetDIMM-completion-us")
		}
	}
}

// BenchmarkOneWayPacket measures the simulator's own throughput on the
// core single-packet path (not a paper figure; a harness health metric):
// one OneWayLatencyWithConfig call, its configuration check included.
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
		if _, err := OneWayLatencyWithConfig(cfg, tx, rx, 1514); err != nil {
			b.Fatal(err)
		}
	}
}

// warmNetDIMMPacket builds a NetDIMM endpoint pair and returns one
// size-byte packet's driver TX on one endpoint and driver RX on the
// other, without the wire term OneWay adds. 200 packets warm the pair
// first, so each further call is the steady state.
func warmNetDIMMPacket(tb testing.TB, size int) (send func()) {
	tx, err := NewNetDIMMWithConfig(DefaultConfig(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	rx, err := NewNetDIMMWithConfig(DefaultConfig(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	p := nic.Packet{Size: size}
	send = func() {
		tx.impl.TX(p)
		rx.impl.RX(p)
	}
	for i := 0; i < 200; i++ {
		send()
	}
	return send
}

// BenchmarkNetDIMMPacket times the NetDIMM device path alone at 64B,
// 512B and 1514B. An op is one warm packet and allocates nothing.
func BenchmarkNetDIMMPacket(b *testing.B) {
	for _, size := range []int{64, 512, 1514} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			send := warmNetDIMMPacket(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
		})
	}
}

// TestNetDIMMPacketAllocs holds BenchmarkNetDIMMPacket to zero heap
// allocations per warm packet at the small sizes; TestOneWayPacketAllocs
// holds the 1514B packet.
func TestNetDIMMPacketAllocs(t *testing.T) {
	for _, size := range []int{64, 512} {
		if avg := testing.AllocsPerRun(200, warmNetDIMMPacket(t, size)); avg != 0 {
			t.Errorf("%dB: %v allocs per TX+RX, want 0", size, avg)
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
		if _, err := OneWayLatencyWithConfig(cfg, tx, rx, 1514); err != nil {
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
// 1514B NetDIMM→NetDIMM packet fires exactly 25 events on the sender's
// engine (TX) and 27 on the receiver's (RX). The nMC issues one pick per
// line, most of them inline through sim.Engine.Advance, which counts each
// as a fired event, and finishes each packet transfer with one done, also
// inline when it can be, not one completion per line. Event counts are
// deterministic, so the budget is exact: queueing a transfer's lines as
// one record, or finishing it inline, must not change them.
func TestOneWayPacketEvents(t *testing.T) {
	tx, rx, send := warmOneWay(t)
	txEng := tx.impl.(*driver.NetDIMMDriver).Eng
	rxEng := rx.impl.(*driver.NetDIMMDriver).Eng
	for i := 0; i < 200; i++ {
		txFired, rxFired := txEng.Fired(), rxEng.Fired()
		send()
		if n := txEng.Fired() - txFired; n != 25 {
			t.Fatalf("packet %d: %d device events on TX, want 25", i, n)
		}
		if n := rxEng.Fired() - rxFired; n != 27 {
			t.Fatalf("packet %d: %d device events on RX, want 27", i, n)
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
// 16KB in at most 32 heap allocations per endpoint. Building stores
// nothing per (rank, bank, sub-array) bucket or per page: the zone, the
// allocCache, the nCache lines and the descriptor rings are made as a cell
// first touches them, so the prefilled 32K pages and the 16K buckets cost
// no host memory until used.
func TestNewNetDIMMAllocs(t *testing.T) {
	const runs = 20
	build := func() {
		if _, err := NewNetDIMMWithConfig(DefaultConfig(), 1); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(runs, build)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("NewNetDIMM: %d B, %.0f allocs", bytes, allocs)
	if bytes > 16<<10 || allocs > 32 {
		t.Fatalf("NewNetDIMM costs %d B in %.0f allocs, want <= %d B and <= 32 allocs", bytes, allocs, 16<<10)
	}
}
