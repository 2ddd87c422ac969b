package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeExec returns a deterministic two-row CSV derived from the cell's
// seed, so runner tests can assert content without running simulations.
func fakeExec(c Cell) (Result, error) {
	doc := fmt.Sprintf("a,b\n%d,%s\n%d,%s\n", c.Seed, c.Name, c.Seed+1, c.Row.Experiment)
	res := Result{CSV: doc, WantRows: 2, ConfigHash: SHA256Hex([]byte(c.Row.Scenario))}
	if c.Row.Metrics {
		res.MetricsCSV = "cell,kind,metric,value,max,points\nx,counter,m,1,,\n"
	}
	return res, nil
}

func testGrid() Grid {
	return Grid{
		Name:    "unit",
		Repeats: 2,
		Experiments: []Experiment{
			{Experiment: "fig11"},
			{Experiment: "failsweep", Metrics: true},
		},
	}
}

func TestRunnerHappyPath(t *testing.T) {
	root := t.TempDir()
	r := &Runner{
		Grid:    testGrid(),
		OutRoot: root,
		Stamp:   "20260101T000000Z",
		Schemas: testSchemas(),
		Exec:    fakeExec,
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed != 0 {
		t.Fatalf("Failed = %d, want 0", rep.Failed)
	}
	if rep.Dir != filepath.Join(root, "20260101T000000Z") {
		t.Fatalf("Dir = %q", rep.Dir)
	}
	for _, f := range []string{"manifest.json", "run.log", "summary.txt",
		"csv/fig11-table1-r0.csv", "csv/fig11-table1-r1.csv",
		"csv/failsweep-table1-r0.csv", "metrics/failsweep-table1-r0.csv"} {
		if _, err := os.Stat(filepath.Join(rep.Dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
	var man Manifest
	data, err := os.ReadFile(filepath.Join(rep.Dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("manifest.json: %v", err)
	}
	if man.Campaign != "unit" || len(man.Cells) != 4 {
		t.Fatalf("manifest: campaign=%q cells=%d", man.Campaign, len(man.Cells))
	}
	for _, c := range man.Cells {
		if c.Status != "ok" || c.Rows != 2 || c.ConfigHash == "" {
			t.Errorf("cell %s: status=%q rows=%d hash=%q", c.Name, c.Status, c.Rows, c.ConfigHash)
		}
	}
	if man.Host.GoVersion == "" || man.Host.NumCPU < 1 {
		t.Errorf("manifest host block not populated: %+v", man.Host)
	}
	if !strings.Contains(rep.Summary, "fig11") || !strings.Contains(rep.Summary, "failsweep") {
		t.Errorf("summary missing family groups:\n%s", rep.Summary)
	}
}

// TestRunnerDeterministicCSVs is the harness-level half of the campaign
// determinism contract: same grid, same seeds, any parallelism — the csv/
// and metrics/ trees are byte-identical.
func TestRunnerDeterministicCSVs(t *testing.T) {
	run := func(parallelism int, stamp string) string {
		g := testGrid()
		g.Parallelism = parallelism
		r := &Runner{Grid: g, OutRoot: t.TempDir(), Stamp: stamp, Schemas: testSchemas(), Exec: fakeExec}
		rep, err := r.Run()
		if err != nil {
			t.Fatalf("Run(parallelism=%d): %v", parallelism, err)
		}
		return rep.Dir
	}
	a, b := run(1, "s1"), run(4, "s2")
	for _, sub := range []string{"csv", "metrics"} {
		ents, err := os.ReadDir(filepath.Join(a, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			da, err := os.ReadFile(filepath.Join(a, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			db, err := os.ReadFile(filepath.Join(b, sub, e.Name()))
			if err != nil {
				t.Fatalf("parallel run missing %s/%s: %v", sub, e.Name(), err)
			}
			if string(da) != string(db) {
				t.Errorf("%s/%s differs between sequential and parallel runs", sub, e.Name())
			}
		}
	}
}

func TestRunnerRecordsFailures(t *testing.T) {
	g := testGrid()
	exec := func(c Cell) (Result, error) {
		if c.Row.Experiment == "failsweep" && c.Repeat == 1 {
			return Result{}, fmt.Errorf("boom")
		}
		return fakeExec(c)
	}
	r := &Runner{Grid: g, OutRoot: t.TempDir(), Stamp: "s", Schemas: testSchemas(), Exec: exec}
	rep, err := r.Run()
	if err == nil || !strings.Contains(err.Error(), "1 of 4 cells failed") {
		t.Fatalf("want campaign failure error, got %v", err)
	}
	if rep == nil || rep.Failed != 1 {
		t.Fatalf("report: %+v", rep)
	}
	var bad *CellRecord
	for i := range rep.Manifest.Cells {
		if rep.Manifest.Cells[i].Status != "ok" {
			bad = &rep.Manifest.Cells[i]
		}
	}
	if bad == nil || !strings.Contains(bad.Status, "boom") || bad.CSV != "" {
		t.Fatalf("failed cell record: %+v", bad)
	}
	// The three healthy cells still produced CSVs.
	ents, err := os.ReadDir(filepath.Join(rep.Dir, "csv"))
	if err != nil || len(ents) != 3 {
		t.Fatalf("csv dir after partial failure: %d entries, err %v", len(ents), err)
	}
}

func TestRunnerValidatesAgainstSchema(t *testing.T) {
	exec := func(c Cell) (Result, error) {
		return Result{CSV: "wrong,header\n1,2\n"}, nil
	}
	g := Grid{Experiments: []Experiment{{Experiment: "fig11"}}}
	r := &Runner{Grid: g, OutRoot: t.TempDir(), Stamp: "s", Schemas: testSchemas(), Exec: exec}
	rep, err := r.Run()
	if err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("want header validation failure, got %v", err)
	}
	if rep.Failed != 1 {
		t.Fatalf("Failed = %d", rep.Failed)
	}
}

func TestRunnerStampCollision(t *testing.T) {
	root := t.TempDir()
	mk := func() string {
		r := &Runner{Grid: Grid{Experiments: []Experiment{{Experiment: "fig11"}}},
			OutRoot: root, Stamp: "same", Schemas: testSchemas(), Exec: fakeExec}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Dir
	}
	a, b := mk(), mk()
	if a == b {
		t.Fatalf("second campaign reused directory %s", a)
	}
	if filepath.Base(b) != "same-2" {
		t.Fatalf("collision suffix: got %s, want same-2", filepath.Base(b))
	}
}

func TestRunnerGridFingerprint(t *testing.T) {
	dir := t.TempDir()
	gridFile := filepath.Join(dir, "g.json")
	content := []byte(`{"Experiments":[{"Experiment":"fig11"}]}`)
	if err := os.WriteFile(gridFile, content, 0o644); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Grid: Grid{Experiments: []Experiment{{Experiment: "fig11"}}},
		OutRoot: t.TempDir(), Stamp: "s", Schemas: testSchemas(), Exec: fakeExec, GridPath: gridFile}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manifest.GridSHA256 != SHA256Hex(content) {
		t.Fatalf("grid fingerprint mismatch: %s", rep.Manifest.GridSHA256)
	}
}
