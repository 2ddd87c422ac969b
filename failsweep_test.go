package netdimm

import (
	"testing"
	"time"

	"netdimm/internal/fault"
)

func TestRunFailSweep(t *testing.T) {
	outages := []time.Duration{0, 20 * time.Microsecond}
	rows, _, err := RunFailSweepObserved(DefaultConfig(), outages, 300, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 3 archs x 2 outages", len(rows))
	}
	for _, r := range rows {
		if r.Delivered != 300 || r.Failed != 0 {
			t.Errorf("%s outage=%v: delivered %d failed %d, want 300/0 (unlimited retries)",
				r.Arch, r.Outage, r.Delivered, r.Failed)
		}
		if r.Outage == 0 {
			if r.Rerouted != 0 || r.TimeToReroute != -1 {
				t.Errorf("%s baseline: rerouted %d, reroute %v — want 0 and -1",
					r.Arch, r.Rerouted, r.TimeToReroute)
			}
			continue
		}
		if r.Rerouted == 0 {
			t.Errorf("%s outage=%v: no flows failed over", r.Arch, r.Outage)
		}
		if r.TimeToReroute < 0 || r.TimeToReroute > r.Outage {
			t.Errorf("%s outage=%v: time-to-reroute %v outside [0, outage]", r.Arch, r.Outage, r.TimeToReroute)
		}
	}
}

func TestRunFailSweepScenarioConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Load = LoadConfig{Hosts: 8}
	cfg.Fabric = FabricConfig{Leaves: 2, Spines: 2}
	rows, _, err := RunFailSweepObserved(cfg, []time.Duration{10 * time.Microsecond}, 120, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestRunFailSweepObservedMetrics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Load = LoadConfig{Hosts: 8}
	cfg.Obs.Metrics = true
	rows, ob, err := RunFailSweepObserved(cfg, []time.Duration{0}, 90, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if ob == nil || !ob.HasMetrics() {
		t.Fatal("observed run returned no metrics")
	}
}

func TestRunFailSweepRejectsInvalidInput(t *testing.T) {
	if _, _, err := RunFailSweepObserved(DefaultConfig(), []time.Duration{-time.Microsecond}, 50, 0, 1); err == nil {
		t.Fatal("negative outage duration accepted")
	}
	cfg := DefaultConfig()
	cfg.NetworkGbps = 0
	if _, _, err := RunFailSweepObserved(cfg, nil, 50, 0, 1); err == nil {
		t.Fatal("invalid base config accepted")
	}
	cfg = DefaultConfig()
	cfg.Fault.Failure.Outages = []fault.Outage{{Kind: fault.OutageSpine, Index: 42, StartNs: 0, EndNs: 100}}
	if _, _, err := RunFailSweepObserved(cfg, []time.Duration{0}, 50, 0, 1); err == nil {
		t.Fatal("schedule naming a nonexistent spine accepted")
	}
}
