package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netdimm/internal/campaign"
)

// tinyGrid exercises a fast cross-section of the executor bindings: one
// breakdown family, one trace-replay family and one fault family.
func tinyGrid() campaign.Grid {
	return campaign.Grid{
		Name: "tiny",
		Seed: 3,
		Experiments: []campaign.Experiment{
			{Experiment: "fig4", Sizes: []int{64, 1514}},
			{Experiment: "fig11", Sizes: []int{64}, Metrics: true},
			{Experiment: "faultsweep", Packets: 40, Rates: []float64{0, 0.01}, Trace: true},
		},
	}
}

func TestRunCampaignEndToEnd(t *testing.T) {
	grid := tinyGrid()
	rep, err := runGrid(grid, "", t.TempDir(), nil)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if rep.Failed != 0 || len(rep.Manifest.Cells) != 3 {
		t.Fatalf("report: failed=%d cells=%d", rep.Failed, len(rep.Manifest.Cells))
	}
	// Every cell validated with the exact expected row count.
	wantRows := map[string]int{
		"fig4-table1-r0":       2, // two sizes
		"fig11-table1-r0":      3, // one size x three architectures
		"faultsweep-table1-r0": 6, // two rates x three architectures
	}
	for _, c := range rep.Manifest.Cells {
		if c.Status != "ok" {
			t.Errorf("cell %s: %s", c.Name, c.Status)
		}
		if want := wantRows[c.Name]; c.Rows != want {
			t.Errorf("cell %s rows = %d, want %d", c.Name, c.Rows, want)
		}
		if c.ConfigHash == "" {
			t.Errorf("cell %s missing config hash", c.Name)
		}
		data, err := os.ReadFile(filepath.Join(rep.Dir, c.CSV))
		if err != nil {
			t.Errorf("cell %s CSV: %v", c.Name, err)
			continue
		}
		if _, err := campaign.ValidateCSV(string(data), campaignSchemas()[c.Experiment], c.Rows); err != nil {
			t.Errorf("cell %s on-disk CSV fails validation: %v", c.Name, err)
		}
	}
	// The metrics-armed fig11 cell produced a registry CSV; the others did not.
	for _, c := range rep.Manifest.Cells {
		hasMetrics := c.MetricsCSV != ""
		if want := c.Experiment == "fig11"; hasMetrics != want {
			t.Errorf("cell %s metrics_csv=%q, want present=%v", c.Name, c.MetricsCSV, want)
		}
	}
	// The trace-armed faultsweep cell wrote non-empty trace-event JSON.
	for _, c := range rep.Manifest.Cells {
		hasTrace := c.Trace != ""
		if want := c.Experiment == "faultsweep"; hasTrace != want {
			t.Errorf("cell %s trace=%q, want present=%v", c.Name, c.Trace, want)
			continue
		}
		if !hasTrace {
			continue
		}
		data, err := os.ReadFile(filepath.Join(rep.Dir, c.Trace))
		if err != nil {
			t.Errorf("cell %s trace: %v", c.Name, err)
			continue
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Errorf("cell %s trace is not valid JSON: %v", c.Name, err)
		} else if len(doc.TraceEvents) == 0 {
			t.Errorf("cell %s trace has no events", c.Name)
		}
	}
	var man campaign.Manifest
	data, err := os.ReadFile(filepath.Join(rep.Dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Campaign != "tiny" || man.CreatedUTC == "" || man.Host.GoVersion == "" {
		t.Fatalf("manifest: %+v", man)
	}
}

// TestRunCampaignDeterministic is the acceptance criterion: re-running the
// same grid with the same seeds yields byte-identical csv/ and metrics/
// trees, at different parallelism levels.
func TestRunCampaignDeterministic(t *testing.T) {
	run := func(parallelism int) string {
		g := tinyGrid()
		g.Parallelism = parallelism
		rep, err := runGrid(g, "", t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Dir
	}
	a, b := run(1), run(2)
	for _, sub := range []string{"csv", "metrics", "trace"} {
		ents, err := os.ReadDir(filepath.Join(a, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			t.Fatalf("no files under %s", sub)
		}
		for _, e := range ents {
			da, err := os.ReadFile(filepath.Join(a, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			db, err := os.ReadFile(filepath.Join(b, sub, e.Name()))
			if err != nil {
				t.Fatalf("second run missing %s/%s: %v", sub, e.Name(), err)
			}
			if string(da) != string(db) {
				t.Errorf("%s/%s not byte-identical across runs", sub, e.Name())
			}
		}
	}
}

func TestRunCampaignRejectsInvalidGrid(t *testing.T) {
	_, err := runGrid(campaign.Grid{}, "", t.TempDir(), nil)
	if err == nil || !strings.Contains(err.Error(), "no experiments") {
		t.Fatalf("want validation error, got %v", err)
	}
}

func TestLoadCampaignGridDefault(t *testing.T) {
	g, err := loadGrid(filepath.Join("..", "..", "scenarios", "campaign-default.json"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "campaign-default" || len(g.Experiments) != 9 {
		t.Fatalf("default grid: name=%q rows=%d", g.Name, len(g.Experiments))
	}
	// Every registered family appears exactly once.
	seen := map[string]int{}
	for _, e := range g.Experiments {
		seen[e.Experiment]++
	}
	for fam := range campaignSchemas() {
		if seen[fam] != 1 {
			t.Errorf("family %s appears %d times in the default grid, want 1", fam, seen[fam])
		}
	}
}

// TestCampaignCSVMatchesCLIGoldens pins the one-encoder contract: a
// campaign cell and the CLI's -csv output of the same family, scenario and
// seed are byte-identical. Each family sits in row 0 of its own grid so
// the cell seed is the grid seed (base + 1000*row), the CLI default of 3.
func TestCampaignCSVMatchesCLIGoldens(t *testing.T) {
	cases := []struct {
		row    campaign.Experiment
		golden string
		slow   bool
	}{
		{campaign.Experiment{Experiment: "fig4"}, "fig4-table1.csv", false},
		{campaign.Experiment{Experiment: "fig4", Scenario: "ddr5"}, "fig4-ddr5.csv", false},
		{campaign.Experiment{Experiment: "fig11", Scenario: "pcie-gen3"}, "fig11-pcie-gen3.csv", false},
		{campaign.Experiment{Experiment: "fig12a", Packets: 1000}, "fig12a-table1.csv", false},
		{campaign.Experiment{Experiment: "faultsweep", Packets: 1000}, "faultsweep-default.csv", false},
		{campaign.Experiment{Experiment: "loadsweep", Packets: 1000}, "loadsweep-default.csv", false},
		{campaign.Experiment{Experiment: "failsweep"}, "failsweep-default.csv", false},
		{campaign.Experiment{Experiment: "collsweep"}, "collsweep-default.csv", false},
		{campaign.Experiment{Experiment: "racksweep"}, "racksweep-default.csv", true},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("slow golden skipped under -short")
			}
			grid := campaign.Grid{Seed: 3, Experiments: []campaign.Experiment{tc.row}}
			cells, err := grid.Plan()
			if err != nil {
				t.Fatal(err)
			}
			res, err := runCell(cells[0])
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if res.CSV != string(want) {
				t.Fatalf("campaign %s CSV differs from CLI golden %s", tc.row.Experiment, tc.golden)
			}
		})
	}
}

// Every campaign grid shipped in scenarios/ (campaign-*.json) must load
// and validate against the family table.
func TestCommittedGridFiles(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "campaign-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed campaign grids found")
	}
	for _, path := range paths {
		if _, err := loadGrid(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
