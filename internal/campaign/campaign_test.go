package campaign

import (
	"strings"
	"testing"
	"time"
)

// testSchemas is a minimal family registry for grid validation tests.
func testSchemas() map[string]Schema {
	return map[string]Schema{
		"fig4":      {Header: []string{"a", "b"}, MinRows: 1},
		"fig11":     {Header: []string{"a", "b"}, MinRows: 1, Observed: true},
		"failsweep": {Header: []string{"a", "b"}, MinRows: 1, Observed: true},
	}
}

func TestReadGridRejectsUnknownFields(t *testing.T) {
	_, err := ReadGrid(strings.NewReader(`{"Experiments":[{"Experiment":"fig11","Pakets":5}]}`))
	if err == nil || !strings.Contains(err.Error(), "Pakets") {
		t.Fatalf("want unknown-field error naming Pakets, got %v", err)
	}
}

func TestGridValidate(t *testing.T) {
	cases := []struct {
		name string
		grid Grid
		want string // substring of the error, "" = valid
	}{
		{"empty", Grid{}, "no experiments"},
		{"minimal ok", Grid{Experiments: []Experiment{{Experiment: "fig11"}}}, ""},
		{"unknown family", Grid{Experiments: []Experiment{{Experiment: "fig99"}}}, `unknown experiment family "fig99"`},
		{"missing family", Grid{Experiments: []Experiment{{}}}, "missing Experiment family"},
		{"negative repeats", Grid{Repeats: -1, Experiments: []Experiment{{Experiment: "fig11"}}}, "Repeats -1"},
		{"too many repeats", Grid{Repeats: 1001, Experiments: []Experiment{{Experiment: "fig11"}}}, "Repeats 1001 is outside 0..1000"},
		{"1000 repeats ok", Grid{Repeats: 1000, Experiments: []Experiment{{Experiment: "fig11"}}}, ""},
		{"too many row repeats", Grid{Experiments: []Experiment{{Experiment: "fig11", Repeats: 1001}}}, "reuse the next row's seeds"},
		{"negative parallelism", Grid{Parallelism: -2, Experiments: []Experiment{{Experiment: "fig11"}}}, "Parallelism -2"},
		{"negative packets", Grid{Experiments: []Experiment{{Experiment: "fig11", Packets: -5}}}, "non-negative"},
		{"bad size", Grid{Experiments: []Experiment{{Experiment: "fig11", Sizes: []int{0}}}}, "packet size 0"},
		{"bad rate", Grid{Experiments: []Experiment{{Experiment: "fig11", Rates: []float64{-0.1}}}}, "rate -0.1"},
		{"bad rack", Grid{Experiments: []Experiment{{Experiment: "fig11", Racks: []int{0}}}}, "rack count 0"},
		{"bad outage", Grid{Experiments: []Experiment{{Experiment: "failsweep", Outages: []string{"5parsecs"}}}}, `bad outage duration "5parsecs"`},
		{"zero outage ok", Grid{Experiments: []Experiment{{Experiment: "failsweep", Outages: []string{"0", "20us"}}}}, ""},
		{"metrics on an observed family ok", Grid{Experiments: []Experiment{{Experiment: "fig11", Metrics: true, Trace: true}}}, ""},
		{"metrics on an unobserved family", Grid{Experiments: []Experiment{{Experiment: "fig4", Metrics: true}}},
			"experiments[0] (fig4): Metrics and Trace need a family that records an observation (families that do: failsweep, fig11)"},
		{"trace on an unobserved family", Grid{Experiments: []Experiment{{Experiment: "fig11"}, {Experiment: "fig4", Trace: true}}},
			"experiments[1] (fig4): Metrics and Trace need"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.grid.Validate(testSchemas())
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// A load or rack sweep's rate is an offered load, which must be positive;
// a fault sweep's rate is a loss rate, whose 0 is the lossless baseline.
func TestGridValidateRates(t *testing.T) {
	known := testSchemas()
	for _, fam := range []string{"loadsweep", "racksweep", "faultsweep"} {
		known[fam] = Schema{Header: []string{"a"}}
	}
	cases := []struct {
		row  Experiment
		want string // substring of the error, "" = valid
	}{
		{Experiment{Experiment: "loadsweep", Rates: []float64{0.1, 0}}, "experiments[0] (loadsweep): offered load 0 must be positive"},
		{Experiment{Experiment: "racksweep", Rates: []float64{0}}, "experiments[0] (racksweep): offered load 0 must be positive"},
		{Experiment{Experiment: "loadsweep", Rates: []float64{-0.2}}, "rate -0.2"},
		{Experiment{Experiment: "loadsweep", Rates: []float64{0.05, 0.2}}, ""},
		{Experiment{Experiment: "faultsweep", Rates: []float64{0, 0.1}}, ""},
		{Experiment{Experiment: "faultsweep", Rates: []float64{0.1, 2}}, "experiments[0] (faultsweep): loss rate 2 must be a probability in [0,1]"},
		{Experiment{Experiment: "loadsweep", Rates: []float64{2}}, ""},
	}
	for _, tc := range cases {
		err := Grid{Experiments: []Experiment{tc.row}}.Validate(known)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s %v: want valid, got %v", tc.row.Experiment, tc.row.Rates, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: want error containing %q, got %v", tc.row.Experiment, tc.row.Rates, tc.want, err)
		}
	}
}

func TestValidateUnknownFamilyListsKnown(t *testing.T) {
	g := Grid{Experiments: []Experiment{{Experiment: "nope"}}}
	err := g.Validate(testSchemas())
	if err == nil || !strings.Contains(err.Error(), "failsweep, fig11") {
		t.Fatalf("want sorted family list in error, got %v", err)
	}
}

func TestPlanSeedsAndNames(t *testing.T) {
	g := Grid{
		Seed:    100,
		Repeats: 2,
		Experiments: []Experiment{
			{Experiment: "fig11"},
			{Experiment: "failsweep", Scenario: "scenarios/clos-2x4.json", Outages: []string{"0", "20us"}},
			{Experiment: "fig11", Seed: 7, Repeats: 1},
		},
	}
	cells, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("want 5 cells (2+2+1), got %d", len(cells))
	}
	// Seed contract: base + 1000*rowIndex + repeat (row Seed overrides base).
	wantSeeds := []uint64{100, 101, 1100, 1101, 2007}
	wantNames := []string{
		"fig11-table1-r0", "fig11-table1-r1",
		"failsweep-clos-2x4-r0", "failsweep-clos-2x4-r1",
		"fig11-table1-x2-r0", // row 2 collides with row 0's stem
	}
	for i, c := range cells {
		if c.Seed != wantSeeds[i] {
			t.Errorf("cell %d seed = %d, want %d", i, c.Seed, wantSeeds[i])
		}
		if c.Name != wantNames[i] {
			t.Errorf("cell %d name = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Index != i {
			t.Errorf("cell %d Index = %d", i, c.Index)
		}
	}
	if cells[2].Outages[1] != 20*time.Microsecond {
		t.Errorf("outage parse: got %v, want 20µs", cells[2].Outages[1])
	}
}

// A scenario whose slug ends in "-x<n>" can produce the stem a later
// colliding row would take; Plan must still give every cell its own name.
func TestPlanSuffixedStemCollision(t *testing.T) {
	g := Grid{Experiments: []Experiment{
		{Experiment: "fig11", Scenario: "a-x2"},
		{Experiment: "fig11", Scenario: "a"},
		{Experiment: "fig11", Scenario: "a"}, // suffixed stem is row 0's
	}}
	cells, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig11-a-x2-r0", "fig11-a-r0", "fig11-a-x3-r0"}
	for i, c := range cells {
		if c.Name != want[i] {
			t.Errorf("cell %d name = %q, want %q", i, c.Name, want[i])
		}
	}
}

func TestPlanDefaults(t *testing.T) {
	g := Grid{Experiments: []Experiment{{Experiment: "fig11"}}}
	cells, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("want 1 cell, got %d", len(cells))
	}
	if cells[0].Seed != 3 {
		t.Errorf("default base seed: got %d, want 3 (the CLI default)", cells[0].Seed)
	}
}

func TestScenarioSlug(t *testing.T) {
	cases := map[string]string{
		"":                         "table1",
		"ddr5":                     "ddr5",
		"scenarios/clos-2x4.json":  "clos-2x4",
		"My Scenario.json":         "my-scenario",
		"UPPER_case-ok.json":       "upper_case-ok",
		"scenarios/weird..name.js": "weird--name",
	}
	for in, want := range cases {
		if got := scenarioSlug(in); got != want {
			t.Errorf("scenarioSlug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestValidateCSV(t *testing.T) {
	schema := Schema{Header: []string{"a", "b"}, MinRows: 2}
	ok := "a,b\n1,2\n3,4\n"
	if n, err := ValidateCSV(ok, schema, 0); err != nil || n != 2 {
		t.Fatalf("valid doc: rows=%d err=%v", n, err)
	}
	if _, err := ValidateCSV(ok, schema, 3); err == nil || !strings.Contains(err.Error(), "exactly 3") {
		t.Fatalf("want exact-row mismatch, got %v", err)
	}
	if _, err := ValidateCSV("", schema, 0); err == nil || !strings.Contains(err.Error(), "empty CSV") {
		t.Fatalf("want empty-CSV error, got %v", err)
	}
	if _, err := ValidateCSV("a,c\n1,2\n3,4\n", schema, 0); err == nil || !strings.Contains(err.Error(), `column 1 is "c"`) {
		t.Fatalf("want header mismatch, got %v", err)
	}
	if _, err := ValidateCSV("a,b\n1,2\n", schema, 0); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("want min-rows error, got %v", err)
	}
	if _, err := ValidateCSV("a,b\n1,2,3\n", schema, 0); err == nil {
		t.Fatal("want ragged-row error, got nil")
	}
}
