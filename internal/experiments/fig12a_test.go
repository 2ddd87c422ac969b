package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/workload"
)

// TestFig12aMatchesPerCellReference holds the one-cell-per-cluster Fig12a,
// which prices dNIC, iNIC and the wire term once per (size, locality), to
// the per-(cluster, switch latency) cells that price every packet, row for
// row. Its cell runs Table 1, the pcie-gen3 system, whose dNIC costs
// differ, and the ddr5 system, whose NetDIMM DRAM timing differs; every
// cluster; unsorted, duplicated, single and 0ns switch latency lists; 1 to
// 400 packets, plus each system at exactly 1 and at 1200; and several
// seeds. The sweep itself runs each system at 1 and 1200 packets, at
// parallelism 1 and 3. A NetDIMM endpoint's cost is not a function of size
// alone: the receives of packets 512 and 1024 find a different DRAM state
// and their RX DMA is cheaper, so at 1200 packets a NetDIMM priced once per
// size would not match.
func TestFig12aMatchesPerCellReference(t *testing.T) {
	gen3 := spec.TableOne()
	gen3.PCIe = "x8 PCIe Gen3"
	ddr5 := spec.TableOne()
	ddr5.DRAM = "DDR5-4800"
	systems := []struct {
		name string
		sp   spec.Spec
	}{{"table1", spec.TableOne()}, {"pcie-gen3", gen3}, {"ddr5", ddr5}}
	latencies := []sim.Time{0, 25 * sim.Nanosecond, 50 * sim.Nanosecond, 100 * sim.Nanosecond, 200 * sim.Nanosecond, 1234}
	r := sim.NewRand(12)
	for trial := 0; trial < 48; trial++ {
		sys := systems[trial%len(systems)]
		cl := workload.Clusters[r.Intn(len(workload.Clusters))]
		sls := make([]sim.Time, 1+r.Intn(5))
		for i := range sls {
			sls[i] = latencies[r.Intn(len(latencies))]
		}
		n := 1 + r.Intn(400)
		switch trial / len(systems) {
		case 0:
			n = 1200
		case 1:
			n = 1
		}
		seed := uint64(1 + r.Intn(1000))
		d := sys.sp.MustDerive()
		got := make([]Fig12aRow, len(sls))
		want := make([]Fig12aRow, len(sls))
		for i, sl := range sls {
			got[i].Cluster, got[i].SwitchLatency = cl, sl
			var err error
			if want[i], err = refFig12aCell(d, cl, sl, n, seed); err != nil {
				t.Fatal(err)
			}
		}
		if err := fig12aCell(d, workload.NewGenerator(cl, 0, seed).Next, n, 2*seed, got, nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, cluster %v, switch latencies %v, n=%d, seed %d:\n got %+v\nwant %+v",
				sys.name, cl, sls, n, seed, got, want)
		}
		if n == 1 || n == 1200 {
			parallelism := 1 + 2*(trial%2)
			want, err := refFig12a(sys.sp, workload.Clusters, PaperSwitchLatencies, n, seed, parallelism)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Fig12a(sys.sp, n, seed, parallelism)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s sweep, n=%d, seed %d, parallelism %d:\n got %+v\nwant %+v",
					sys.name, n, seed, parallelism, got, want)
			}
		}
	}
}

// TestFig12aCellAllocs bounds the heap bytes of one 1000-packet Fig. 12(a)
// cell, a warm run on one worker: the Fig. 12(a) row of the per-cell
// allocation ledger. The two NetDIMM endpoints take about 91 KB, most of it
// the receiver zone's freed-page stacks; the (size, locality) table lives
// on the stack. A trace materialised up front would add 24 KB.
func TestFig12aCellAllocs(t *testing.T) {
	const packets, limit = 1000, 100 << 10
	d := spec.TableOne().MustDerive()
	rows := make([]Fig12aRow, len(PaperSwitchLatencies))
	for i, sl := range PaperSwitchLatencies {
		rows[i].SwitchLatency = sl
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, cl := range workload.Clusters {
		run := func() {
			if err := fig12aCell(d, workload.NewGenerator(cl, 0, 3).Next, packets, 6, rows, nil); err != nil {
				t.Fatal(err)
			}
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d B in %d allocs", cl, bytes, after.Mallocs-before.Mallocs)
		if bytes > limit {
			t.Errorf("%s: a %d-packet cell allocates %d B, want <= %d", cl, packets, bytes, limit)
		}
	}
}
