package netdimm

import (
	"math"
	"strings"
	"testing"
)

func TestRunLoadSweep(t *testing.T) {
	loads := []float64{0.05, 0.15}
	rows, knees, err := RunLoadSweepWithConfig(DefaultConfig(), loads, 150, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 3 archs x 2 loads", len(rows))
	}
	for _, r := range rows {
		if r.Delivered+r.Dropped != 150 {
			t.Errorf("%s at load %g: delivered %d + dropped %d != 150 offered",
				r.Arch, r.OfferedLoad, r.Delivered, r.Dropped)
		}
		if r.P50 <= 0 || r.P50 > r.P99 || r.P99 > r.P999 {
			t.Errorf("%s at load %g: implausible percentiles p50=%v p99=%v p99.9=%v",
				r.Arch, r.OfferedLoad, r.P50, r.P99, r.P999)
		}
		if r.LinkUtilization <= 0 || r.LinkUtilization > 1 {
			t.Errorf("%s at load %g: link utilisation %g", r.Arch, r.OfferedLoad, r.LinkUtilization)
		}
	}
	if len(knees) != 3 {
		t.Fatalf("got %d knees, want 3", len(knees))
	}
}

func TestRunLoadSweepScenarioConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Load = LoadConfig{Hosts: 4, Cluster: "hadoop", Process: "fixed"}
	rows, _, err := RunLoadSweepWithConfig(cfg, []float64{0.1}, 100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestRunLoadSweepRejectsInvalidInput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Load.Cluster = "mainframe"
	if _, _, err := RunLoadSweepWithConfig(cfg, []float64{0.1}, 10, 0, 1); err == nil {
		t.Fatal("unknown cluster accepted")
	}
	cfg = DefaultConfig()
	cfg.NetworkGbps = 0
	if _, _, err := RunLoadSweepWithConfig(cfg, []float64{0.1}, 10, 0, 1); err == nil {
		t.Fatal("invalid base config accepted")
	}
	if _, _, err := RunLoadSweepWithConfig(DefaultConfig(), []float64{math.NaN()}, 10, 0, 1); err == nil {
		t.Fatal("NaN load accepted")
	}
}

func TestRunLoadSweepObserved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Obs.Metrics = true
	rows, _, o, err := RunLoadSweepObserved(cfg, []float64{0.1}, 80, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o == nil {
		t.Fatal("nil observation with metrics enabled")
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if csv := o.MetricsCSV(); !strings.Contains(csv, "rx_max_depth") {
		t.Errorf("metrics CSV missing rx_max_depth:\n%s", csv)
	}
}

func TestTableShowsLoadRowOnlyWhenSet(t *testing.T) {
	if strings.Contains(DefaultConfig().Table(), "Load sweep") {
		t.Error("default Table() mentions the load sweep")
	}
	cfg := DefaultConfig()
	cfg.Load.Hosts = 16
	if !strings.Contains(cfg.Table(), "16 hosts incast, database/poisson traffic") {
		t.Errorf("Table() missing or wrong load row:\n%s", cfg.Table())
	}
}
