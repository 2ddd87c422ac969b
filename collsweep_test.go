package netdimm

import (
	"strings"
	"testing"
)

func TestRunCollSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Collective.PayloadBytes = 8 << 10
	rows, err := RunCollSweepWithConfig(cfg, []int{4, 8}, []string{"allreduce"}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 3 archs x 2 rank counts", len(rows))
	}
	for _, r := range rows {
		if r.Op != "allreduce" {
			t.Errorf("op %q, want allreduce", r.Op)
		}
		if want := 2 * (r.Ranks - 1); r.Steps != want {
			t.Errorf("%s ranks=%d: steps %d, want %d", r.Arch, r.Ranks, r.Steps, want)
		}
		if r.Completion <= 0 || r.Dropped != 0 {
			t.Errorf("%s ranks=%d: completion %v dropped %d", r.Arch, r.Ranks, r.Completion, r.Dropped)
		}
		if r.LinkUtilization <= 0 || r.LinkUtilization > 1 {
			t.Errorf("%s ranks=%d: link utilisation %g", r.Arch, r.Ranks, r.LinkUtilization)
		}
	}
	// More ranks means a deeper ring schedule, so completion must grow
	// monotonically within each architecture.
	for a := 0; a < 3; a++ {
		if rows[2*a].Completion >= rows[2*a+1].Completion {
			t.Errorf("%s: completion at 4 ranks %v >= at 8 ranks %v",
				rows[2*a].Arch, rows[2*a].Completion, rows[2*a+1].Completion)
		}
	}
}

func TestRunCollSweepScenarioConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Collective = CollectiveConfig{Op: "broadcast", Ranks: 8, PayloadBytes: 4 << 10}
	rows, err := RunCollSweepWithConfig(cfg, nil, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want the scenario's pinned (op, ranks) per arch", len(rows))
	}
	for _, r := range rows {
		if r.Op != "broadcast" || r.Ranks != 8 || r.PayloadBytes != 4<<10 {
			t.Errorf("row %+v, want the pinned broadcast/8/4KiB cell", r)
		}
	}
}

func TestRunCollSweepRejectsInvalidInput(t *testing.T) {
	if _, err := RunCollSweepWithConfig(DefaultConfig(), []int{1}, nil, 0, 1); err == nil {
		t.Fatal("rank count below 2 accepted")
	}
	if _, err := RunCollSweepWithConfig(DefaultConfig(), nil, []string{"allgather"}, 0, 1); err == nil {
		t.Fatal("unknown op accepted")
	}
	cfg := DefaultConfig()
	cfg.NetworkGbps = 0
	if _, err := RunCollSweepWithConfig(cfg, []int{4}, nil, 0, 1); err == nil {
		t.Fatal("invalid base config accepted")
	}
}

func TestRunCollSweepObserved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Obs.Metrics = true
	cfg.Collective.PayloadBytes = 4 << 10
	rows, o, err := RunCollSweepObserved(cfg, []int{4}, []string{"reducescatter"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o == nil {
		t.Fatal("nil observation with metrics enabled")
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if csv := o.MetricsCSV(); !strings.Contains(csv, "completion_ns") {
		t.Errorf("metrics CSV missing completion_ns:\n%s", csv)
	}
}

func TestTableShowsCollectiveRowOnlyWhenSet(t *testing.T) {
	if strings.Contains(DefaultConfig().Table(), "Collective") {
		t.Error("default Table() mentions the collective sweep")
	}
	cfg := DefaultConfig()
	cfg.Collective.Op = "allreduce"
	if !strings.Contains(cfg.Table(), "allreduce, 4-128 ranks, 65536B payload") {
		t.Errorf("Table() missing or wrong collective row:\n%s", cfg.Table())
	}
}
