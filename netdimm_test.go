package netdimm

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// machine builds a Table 1 endpoint for the API tests: "dNIC", "iNIC" or
// "NetDIMM" (seeded by seed).
func machine(t *testing.T, arch string, seed uint64) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	var m *Machine
	var err error
	switch arch {
	case "dNIC":
		m, err = NewDNICWithConfig(cfg, false)
	case "iNIC":
		m, err = NewINICWithConfig(cfg, false)
	default:
		m, err = NewNetDIMMWithConfig(cfg, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineNames(t *testing.T) {
	cfg := DefaultConfig()
	for _, tc := range []struct {
		zeroCopy bool
		want     string
	}{{false, "dNIC"}, {true, "dNIC.zcpy"}} {
		m, err := NewDNICWithConfig(cfg, tc.zeroCopy)
		if err != nil || m.Name() != tc.want {
			t.Fatalf("dNIC name = %v, %v; want %s", m, err, tc.want)
		}
	}
	if machine(t, "iNIC", 0).Name() != "iNIC" {
		t.Fatal("iNIC name wrong")
	}
	if machine(t, "NetDIMM", 1).Name() != "NetDIMM" {
		t.Fatal("NetDIMM name wrong")
	}
}

func TestOneWayLatencyAPI(t *testing.T) {
	tx, rx := machine(t, "NetDIMM", 1), machine(t, "NetDIMM", 2)
	lat, err := OneWayLatencyWithConfig(DefaultConfig(), tx, rx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Total <= 0 || lat.Total > 10*time.Microsecond {
		t.Fatalf("Total = %v", lat.Total)
	}
	sum := lat.TxCopy + lat.RxCopy + lat.TxDMA + lat.RxDMA + lat.Wire +
		lat.IOReg + lat.TxFlush + lat.RxInvalidate
	if diff := sum - lat.Total; diff > 8 || diff < -8 {
		t.Fatalf("components %v do not sum to total %v", sum, lat.Total)
	}
	if lat.TxFlush == 0 || lat.RxInvalidate == 0 {
		t.Fatal("NetDIMM coherency components missing")
	}
	if !strings.Contains(lat.String(), "total=") {
		t.Fatal("String missing total")
	}
}

func TestOneWayLatencyErrors(t *testing.T) {
	cfg := DefaultConfig()
	tx := machine(t, "dNIC", 0)
	if _, err := OneWayLatencyWithConfig(cfg, tx, tx, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := OneWayLatencyWithConfig(cfg, nil, tx, 64); err == nil {
		t.Error("nil machine accepted")
	}
}

// A negative switch latency would shorten every path it is added to, so
// each entry point that prices a one-way path through the switch rejects
// a config with one, naming the field.
func TestNegativeSwitchLatencyRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SwitchLatNs = -100
	const want = "SwitchLatNs must not be negative, got -100"
	check := func(entry string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", entry, err, want)
		}
	}
	tx := machine(t, "dNIC", 0)
	_, err := OneWayLatencyWithConfig(cfg, tx, tx, 64)
	check("OneWayLatencyWithConfig", err)
	_, err = RunFig4WithConfig(cfg, []int{64}, 1)
	check("RunFig4WithConfig", err)
	_, _, err = RunFig11Observed(cfg, []int{64}, 1)
	check("RunFig11Observed", err)
	var buf bytes.Buffer
	if err := writeTraceForTest(&buf, Hadoop, 3, 20); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReplayTraceFileWithConfig(cfg, &buf, 1)
	check("ReplayTraceFileWithConfig", err)
}

func TestOneWayOrderingViaAPI(t *testing.T) {
	total := func(arch string) time.Duration {
		b, _ := OneWayLatencyWithConfig(DefaultConfig(), machine(t, arch, 1), machine(t, arch, 2), 1024)
		return b.Total
	}
	nd, in, dn := total("NetDIMM"), total("iNIC"), total("dNIC")
	if !(nd < in && in < dn) {
		t.Fatalf("ordering: ND %v iNIC %v dNIC %v", nd, in, dn)
	}
}

func TestConfigTable(t *testing.T) {
	tbl := DefaultConfig().Table()
	for _, want := range []string{"8, 3.4GHz", "DDR4-2400", "40GbE", "x8 PCIe Gen4"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table missing %q:\n%s", want, tbl)
		}
	}
}

func TestRunFig4Defaults(t *testing.T) {
	rows, err := RunFig4WithConfig(DefaultConfig(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want the 8 paper sizes", len(rows))
	}
	for _, r := range rows {
		if !(r.INICZcpy < r.INIC && r.INIC < r.DNIC) {
			t.Errorf("size %d ordering violated", r.Size)
		}
	}
}

func TestRunFig11Defaults(t *testing.T) {
	rows, _, err := RunFig11Observed(DefaultConfig(), []int{64, 1024}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ReductionVsDNIC() < 0.35 || r.ReductionVsDNIC() > 0.65 {
			t.Errorf("size %d: reduction %.2f", r.Size, r.ReductionVsDNIC())
		}
	}
}

func TestRunFig7(t *testing.T) {
	pts, err := RunFig7WithConfig(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 144 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].RelLine != 0 || pts[0].RelTime != 0 {
		t.Fatal("first point should be the origin")
	}
}

func TestGenerateTrace(t *testing.T) {
	evs := GenerateTrace(Webserver, 200, 9)
	if len(evs) != 200 {
		t.Fatalf("events = %d", len(evs))
	}
	small := 0
	for _, e := range evs {
		if e.Size < 300 {
			small++
		}
		if e.Locality == "" {
			t.Fatal("missing locality")
		}
	}
	if small < 150 {
		t.Fatalf("webserver trace small fraction = %d/200", small)
	}
	// Determinism across calls.
	evs2 := GenerateTrace(Webserver, 200, 9)
	if evs[100] != evs2[100] {
		t.Fatal("trace not deterministic")
	}
}

func TestClusterMapping(t *testing.T) {
	for _, c := range AllClusters {
		if c.internal().String() != string(c) {
			t.Errorf("cluster %s maps to %s", c, c.internal())
		}
	}
}
