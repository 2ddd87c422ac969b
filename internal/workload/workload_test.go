package workload

import (
	"testing"

	"netdimm/internal/dram"
	"netdimm/internal/ethernet"
	"netdimm/internal/memctrl"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
)

func sampleSizes(c Cluster, n int) []int {
	r := sim.NewRand(42)
	out := make([]int, n)
	for i := range out {
		out[i] = c.SampleSize(r)
	}
	return out
}

// Paper Sec. 5.1 distribution checks.
func TestDatabaseSizes(t *testing.T) {
	sizes := sampleSizes(Database, 20000)
	var sum float64
	for _, s := range sizes {
		if s < 64 || s > nic.MTU {
			t.Fatalf("size %d out of [64,1514]", s)
		}
		sum += float64(s)
	}
	mean := sum / float64(len(sizes))
	if mean < 730 || mean > 850 {
		t.Fatalf("database mean = %.0f, want ~789 (uniform 64-1514)", mean)
	}
}

func TestWebserverSizes(t *testing.T) {
	sizes := sampleSizes(Webserver, 20000)
	small := 0
	for _, s := range sizes {
		if s < 300 {
			small++
		}
	}
	frac := float64(small) / float64(len(sizes))
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("webserver <300B fraction = %.3f, want ~0.90", frac)
	}
}

func TestHadoopSizes(t *testing.T) {
	sizes := sampleSizes(Hadoop, 20000)
	tiny, mtu := 0, 0
	for _, s := range sizes {
		if s < 100 {
			tiny++
		}
		if s == nic.MTU {
			mtu++
		}
	}
	tf := float64(tiny) / float64(len(sizes))
	mf := float64(mtu) / float64(len(sizes))
	if tf < 0.38 || tf > 0.44 {
		t.Fatalf("hadoop <100B fraction = %.3f, want ~0.41", tf)
	}
	if mf < 0.49 || mf > 0.55 {
		t.Fatalf("hadoop MTU fraction = %.3f, want ~0.52", mf)
	}
}

func TestLocalityDistributions(t *testing.T) {
	r := sim.NewRand(7)
	counts := make(map[Cluster]map[ethernet.Locality]int)
	const n = 10000
	for _, c := range Clusters {
		counts[c] = map[ethernet.Locality]int{}
		for i := 0; i < n; i++ {
			counts[c][c.SampleLocality(r)]++
		}
	}
	// Database is dominated by inter-DC + intra-DC (inter-cluster) flows.
	if counts[Database][ethernet.InterDatacenter]+counts[Database][ethernet.IntraDatacenter] < n*8/10 {
		t.Fatal("database should be mostly inter-cluster/inter-DC")
	}
	// Webserver: intra-datacenter dominant.
	if counts[Webserver][ethernet.IntraDatacenter] < n*7/10 {
		t.Fatal("webserver should be mostly intra-DC")
	}
	// Hadoop: intra-cluster (incl. intra-rack) dominant.
	if counts[Hadoop][ethernet.IntraCluster]+counts[Hadoop][ethernet.IntraRack] < n*8/10 {
		t.Fatal("hadoop should be mostly intra-cluster")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(Database, 0, 5).Generate(100)
	b := NewGenerator(Database, 0, 5).Generate(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed traces diverge")
		}
	}
	c := NewGenerator(Database, 0, 6).Generate(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGeneratorArrivalsMonotone(t *testing.T) {
	evs := NewGenerator(Hadoop, 2*sim.Microsecond, 1).Generate(1000)
	var prev sim.Time = -1
	var sum sim.Time
	for i, e := range evs {
		if e.At < prev {
			t.Fatalf("event %d: time went backwards", i)
		}
		prev = e.At
	}
	sum = evs[len(evs)-1].At
	meanGap := float64(sum) / float64(len(evs))
	if meanGap < 1.8e6 || meanGap > 2.2e6 { // ps
		t.Fatalf("mean gap = %.0fps, want ~2us", meanGap)
	}
}

func TestEventPacket(t *testing.T) {
	e := Event{At: 100, Size: 512}
	p := e.Packet(7)
	if p.ID != 7 || p.Size != 512 || p.Born != 100 {
		t.Fatalf("Packet = %+v", p)
	}
}

func TestInjectorPressureLowersForLargerDelay(t *testing.T) {
	run := func(delay sim.Time) (issued uint64, avg sim.Time) {
		eng := sim.NewEngine()
		rs := memctrl.NewRankSet(dram.DDR4_2400(), 2)
		mc := memctrl.New(eng, memctrl.DefaultConfig(), rs)
		in := NewInjector(eng, mc, delay, 0.5, 0, 64<<20, 3)
		in.Start()
		eng.RunUntil(200 * sim.Microsecond)
		in.Stop()
		eng.Run()
		return in.Issued(), in.ReadLatency().Mean()
	}
	hiIssued, hiLat := run(10 * sim.Nanosecond) // heavy pressure
	loIssued, loLat := run(1 * sim.Microsecond) // light pressure
	if hiIssued <= loIssued {
		t.Fatalf("issued %d at high pressure vs %d at low", hiIssued, loIssued)
	}
	// Fig. 5 mechanism: more pressure, higher memory latency.
	if hiLat <= loLat {
		t.Fatalf("read latency %v under pressure should exceed %v idle", hiLat, loLat)
	}
}

func TestInjectorReadFraction(t *testing.T) {
	eng := sim.NewEngine()
	rs := memctrl.NewRankSet(dram.DDR4_2400(), 1)
	mc := memctrl.New(eng, memctrl.DefaultConfig(), rs)
	in := NewInjector(eng, mc, 50*sim.Nanosecond, 1.0, 0, 1<<20, 4)
	in.Start()
	eng.RunUntil(50 * sim.Microsecond)
	in.Stop()
	eng.Run()
	if mc.Stats().WritesDone != 0 {
		t.Fatal("read-only injector issued writes")
	}
	if in.ReadLatency().Count() == 0 {
		t.Fatal("no read latencies observed")
	}
}

func TestInjectorTinyWorkingSetClamped(t *testing.T) {
	eng := sim.NewEngine()
	rs := memctrl.NewRankSet(dram.DDR4_2400(), 1)
	mc := memctrl.New(eng, memctrl.DefaultConfig(), rs)
	in := NewInjector(eng, mc, 100*sim.Nanosecond, 0.5, 0, 1, 5)
	in.Start()
	eng.RunUntil(5 * sim.Microsecond)
	in.Stop()
	eng.Run()
	if in.Issued() == 0 {
		t.Fatal("clamped working set should still inject")
	}
}

func TestInjectorParallelism(t *testing.T) {
	run := func(par int) uint64 {
		eng := sim.NewEngine()
		rs := memctrl.NewRankSet(dram.DDR4_2400(), 1)
		mc := memctrl.New(eng, memctrl.DefaultConfig(), rs)
		in := NewInjector(eng, mc, 200*sim.Nanosecond, 0.5, 0, 1<<20, 9)
		in.Parallelism = par
		in.Start()
		eng.RunUntil(100 * sim.Microsecond)
		in.Stop()
		eng.Run()
		return in.Issued()
	}
	one := run(1)
	eight := run(8)
	if eight < 6*one {
		t.Fatalf("parallel injector issued %d vs %d single-threaded", eight, one)
	}
}

// A thread whose request finds the queue full stalls until it is
// admitted, so the injector drops no demand: every request it issued
// completes, and what it issued tracks the controller's capacity.
func TestInjectorRetryDoesNotDropDemand(t *testing.T) {
	eng := sim.NewEngine()
	rs := memctrl.NewRankSet(dram.DDR4_2400(), 1)
	cfg := memctrl.DefaultConfig()
	cfg.ReadQueueCap = 4
	cfg.WriteQueueCap = 4
	mc := memctrl.New(eng, cfg, rs)
	in := NewInjector(eng, mc, sim.Nanosecond, 0.5, 0, 1<<20, 10)
	in.Start()
	eng.RunUntil(20 * sim.Microsecond)
	in.Stop()
	eng.Run()
	if in.Issued() == 0 || in.Issued() >= 20000 {
		t.Fatalf("issued %d requests in 20µs at a 1ns gap; want progress, held back by the queue", in.Issued())
	}
	if done := mc.Stats().ReadsDone + mc.Stats().WritesDone; done != in.Issued() {
		t.Fatalf("issued %d but completed %d", in.Issued(), done)
	}
}
