package workload

import (
	"math"
	"strings"
	"testing"

	"netdimm/internal/nic"
	"netdimm/internal/sim"
)

func TestParseClusterAndProcess(t *testing.T) {
	for name, want := range map[string]Cluster{
		"": Database, "database": Database, "webserver": Webserver, "hadoop": Hadoop,
	} {
		got, err := ParseCluster(name)
		if err != nil || got != want {
			t.Errorf("ParseCluster(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseCluster("mainframe"); err == nil || !strings.Contains(err.Error(), "unknown cluster") {
		t.Errorf("ParseCluster(mainframe) err = %v", err)
	}
	for name, want := range map[string]ArrivalProcess{
		"": Poisson, "poisson": Poisson, "fixed": FixedRate,
	} {
		got, err := ParseProcess(name)
		if err != nil || got != want {
			t.Errorf("ParseProcess(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseProcess("bursty"); err == nil || !strings.Contains(err.Error(), "unknown arrival process") {
		t.Errorf("ParseProcess(bursty) err = %v", err)
	}
	if got := ArrivalProcess(99).String(); got != "ArrivalProcess(99)" {
		t.Errorf("stray process String() = %q", got)
	}
}

// The analytic mean must agree with the sampling distribution it summarises.
func TestMeanSizeMatchesSampler(t *testing.T) {
	for _, c := range Clusters {
		r := sim.NewRand(7)
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(c.SampleSize(r))
		}
		got, want := sum/n, c.MeanSize()
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("%v: sampled mean %.1f vs analytic %.1f (rel err %.3f)", c, got, want, rel)
		}
	}
}

func TestMeanGapForLoad(t *testing.T) {
	// One source at full load on 40GbE: the gap must equal the wire time of
	// a mean-sized frame.
	gap, err := Database.MeanGapForLoad(1, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	bits := (Database.MeanSize() + nic.EthernetOverheadBytes) * 8
	want := sim.Time(math.Round(bits / 40 * float64(sim.Second) / 1e9))
	if gap != want {
		t.Errorf("gap = %v, want %v", gap, want)
	}
	// Halving the load doubles the gap; doubling the sources doubles the
	// per-source gap.
	half, _ := Database.MeanGapForLoad(0.5, 1, 40)
	if got, want := float64(half)/float64(gap), 2.0; math.Abs(got-want) > 0.01 {
		t.Errorf("gap(0.5)/gap(1) = %g, want ~2", got)
	}
	two, _ := Database.MeanGapForLoad(1, 2, 40)
	if got, want := float64(two)/float64(gap), 2.0; math.Abs(got-want) > 0.01 {
		t.Errorf("gap(2 sources)/gap(1) = %g, want ~2", got)
	}

	for _, tc := range []struct {
		load    float64
		sources int
		gbps    float64
	}{
		{0, 1, 40}, {-0.5, 1, 40}, {math.NaN(), 1, 40}, {math.Inf(1), 1, 40},
		{0.5, 0, 40}, {0.5, -3, 40}, {0.5, 1, 0}, {0.5, 1, -10},
	} {
		if _, err := Database.MeanGapForLoad(tc.load, tc.sources, tc.gbps); err == nil {
			t.Errorf("MeanGapForLoad(%g, %d, %g): no error", tc.load, tc.sources, tc.gbps)
		}
	}
}

// The contract the load sweep leans on: same seed, different mean gap →
// identical packet sequence, scaled spacing.
func TestOpenLoopSameSeedHoldsWorkFixed(t *testing.T) {
	slow := NewOpenLoop(Hadoop, Poisson, 4000, 42)
	fast := NewOpenLoop(Hadoop, Poisson, 1000, 42)
	prevS, prevF := sim.Time(0), sim.Time(0)
	for i := 0; i < 5000; i++ {
		es, ef := slow.Next(), fast.Next()
		if es.Size != ef.Size || es.Locality != ef.Locality {
			t.Fatalf("packet %d diverged: slow {%d %v} vs fast {%d %v}",
				i, es.Size, es.Locality, ef.Size, ef.Locality)
		}
		if es.At <= prevS || ef.At <= prevF {
			t.Fatalf("packet %d: arrival times not strictly increasing", i)
		}
		prevS, prevF = es.At, ef.At
	}
	// Mean spacing tracks MeanGap (same exponential draws, scaled).
	if ratio := float64(prevS) / float64(prevF); math.Abs(ratio-4) > 0.05 {
		t.Errorf("makespan ratio %g, want ~4 (MeanGap ratio)", ratio)
	}
}

func TestOpenLoopFixedRate(t *testing.T) {
	g := NewOpenLoop(Database, FixedRate, 250, 1)
	for i := 1; i <= 100; i++ {
		if e := g.Next(); e.At != sim.Time(i*250) {
			t.Fatalf("arrival %d at %v, want %v", i, e.At, sim.Time(i*250))
		}
	}
}

func TestOpenLoopRejectsBadGap(t *testing.T) {
	for _, gap := range []sim.Time{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewOpenLoop(gap=%v) did not panic", gap)
				}
			}()
			NewOpenLoop(Database, Poisson, gap, 1)
		}()
	}
}

func TestLoadSpecValidate(t *testing.T) {
	if err := (LoadSpec{}).Validate(); err != nil {
		t.Errorf("zero LoadSpec: %v", err)
	}
	good := LoadSpec{Hosts: 16, Cluster: "hadoop", Process: "fixed", PortBuffer: 32, KneeFactor: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("good LoadSpec: %v", err)
	}
	for _, tc := range []struct {
		name string
		l    LoadSpec
	}{
		{"negative hosts", LoadSpec{Hosts: -1}},
		{"negative buffer", LoadSpec{PortBuffer: -8}},
		{"negative knee", LoadSpec{KneeFactor: -2}},
		{"NaN knee", LoadSpec{KneeFactor: math.NaN()}},
		{"Inf knee", LoadSpec{KneeFactor: math.Inf(1)}},
		{"sub-1 knee", LoadSpec{KneeFactor: 0.5}},
		{"bad cluster", LoadSpec{Cluster: "mainframe"}},
		{"bad process", LoadSpec{Process: "bursty"}},
	} {
		if err := tc.l.Validate(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
