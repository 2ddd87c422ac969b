package netdimm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netdimm/internal/driver"
)

func TestLoadScenarioPresets(t *testing.T) {
	for _, name := range Scenarios() {
		cfg, err := LoadScenario(name)
		if err != nil {
			t.Fatalf("LoadScenario(%q): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %q does not validate: %v", name, err)
		}
	}
	// The empty name and "table1" are both the paper's Table 1 system.
	def, err := LoadScenario("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, DefaultConfig()) {
		t.Error(`LoadScenario("") != DefaultConfig()`)
	}
}

func TestScenarioNames(t *testing.T) {
	want := []string{"ddr5", "lossy-1pct", "pcie-gen3", "table1"}
	if got := Scenarios(); !reflect.DeepEqual(got, want) {
		t.Errorf("Scenarios() = %v, want %v", got, want)
	}
}

func TestLoadScenarioUnknownNameError(t *testing.T) {
	_, err := LoadScenario("ddr6")
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, frag := range append(Scenarios(), "ddr6", ".json") {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	want := DefaultConfig()
	want.DRAM = "DDR5-4800"
	want.NetworkGbps = 100
	want.SwitchLatNs = 250
	blob, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenario(strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestScenarioPartialJSONFillsDefaults(t *testing.T) {
	// A scenario file only states what differs from Table 1.
	got, err := ReadScenario(strings.NewReader(`{"DRAM": "DDR5-4800"}`))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.DRAM = "DDR5-4800"
	if !reflect.DeepEqual(got, want) {
		t.Errorf("partial scenario = %+v, want defaults + DDR5", got)
	}
}

// A misspelt field, and each Table 1 field that changes no output and so
// is not a Config field, fails with an error naming it.
func TestScenarioRejectsUnknownField(t *testing.T) {
	for _, field := range []string{"DARM", "Cores", "CoreGHz", "SuperscalarW", "ROBEntries",
		"IQEntries", "LQEntries", "SQEntries", "L1ISizeKB", "L1DSizeKB", "L2SizeMB",
		"L1ILatCycles", "L1DLatCycles", "L2LatCycles", "DRAMSizeGB", "MemChannels", "NetDIMMs"} {
		_, err := ReadScenario(strings.NewReader(`{"` + field + `": 16}`))
		if err == nil {
			t.Errorf("unknown field %s accepted", field)
		} else if !strings.Contains(err.Error(), field) {
			t.Errorf("error %q does not name the unknown field %s", err, field)
		}
	}
}

func TestScenarioRejectsInvalidConfig(t *testing.T) {
	_, err := ReadScenario(strings.NewReader(`{"NetworkGbps": 0}`))
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if !strings.Contains(err.Error(), "NetworkGbps") {
		t.Errorf("error %q does not name the offending field", err)
	}
}

func TestLoadScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen3.json")
	if err := os.WriteFile(path, []byte(`{"PCIe": "x8 PCIe Gen3"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PCIe != "x8 PCIe Gen3" {
		t.Errorf("PCIe = %q", cfg.PCIe)
	}
	if cfg.NetworkGbps != DefaultConfig().NetworkGbps {
		t.Errorf("unset fields not defaulted: NetworkGbps = %d", cfg.NetworkGbps)
	}
}

func TestValidateActionableErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAM = "DDR3-1600"
	err := cfg.Validate()
	if err == nil {
		t.Fatal("DDR3 accepted")
	}
	// The message should tell the user what IS supported.
	if !strings.Contains(err.Error(), "DDR4-2400") || !strings.Contains(err.Error(), "DDR5") {
		t.Errorf("error %q does not list supported technologies", err)
	}
}

// The headline claim must survive the technology scenarios: NetDIMM below
// iNIC below dNIC at every packet size, not just under Table 1 DDR4/Gen4.
func TestScenarioFig11Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"ddr5", "pcie-gen3"} {
		t.Run(name, func(t *testing.T) {
			cfg, err := LoadScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			rows, _, err := RunFig11Observed(cfg, []int{64, 1500}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Fatal("no rows")
			}
			for _, r := range rows {
				if !(r.NetDIMM.Total() < r.INIC.Total() && r.INIC.Total() < r.DNIC.Total()) {
					t.Errorf("size %d: want NetDIMM < iNIC < dNIC, got %v %v %v",
						r.Size, r.NetDIMM.Total(), r.INIC.Total(), r.DNIC.Total())
				}
			}
		})
	}
}

// Every scenario file shipped in scenarios/ must load and validate — they
// are the documented -scenario entry points. Campaign grids (campaign-*.json)
// live in the same directory but are -grid documents, validated through the
// campaign loader instead.
func TestCommittedScenarioFiles(t *testing.T) {
	paths, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed scenario files found")
	}
	for _, path := range paths {
		if strings.HasPrefix(filepath.Base(path), "campaign-") {
			continue // a campaign grid; cmd/netdimm-sim's TestCommittedGridFiles loads it
		}
		if _, err := LoadScenario(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// Every preset and every committed scenario file derives exactly the one
// driver cost set, the constants calibrated to Fig. 11.
func TestScenariosDeriveDefaultCosts(t *testing.T) {
	paths, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append(Scenarios(), paths...) {
		if strings.HasPrefix(filepath.Base(name), "campaign-") {
			continue // a campaign grid, not a scenario
		}
		cfg, err := LoadScenario(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, err := cfg.Derive()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Costs != driver.DefaultCosts() {
			t.Errorf("%s: Costs = %+v, want driver.DefaultCosts %+v", name, d.Costs, driver.DefaultCosts())
		}
	}
}

// The clos scenario pins the fabric shape: a rack sweep driven by it must
// run exactly one rack count (4 leaves) with the file's ECN tuning on its
// marking cells.
func TestClosScenarioDrivesRackSweep(t *testing.T) {
	cfg, err := LoadScenario(filepath.Join("scenarios", "clos-2x4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fabric.Leaves != 4 || cfg.Fabric.Spines != 2 {
		t.Fatalf("fabric block = %+v, want 4 leaves x 2 spines", cfg.Fabric)
	}
	if cfg.Load.Hosts != 32 {
		t.Fatalf("Load.Hosts = %d, want 32", cfg.Load.Hosts)
	}
	rows, knees, err := RunRackSweepWithConfig(cfg, nil, []float64{0.1}, 320, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 archs x 1 pinned rack count x ECN off/on
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Racks != 4 {
			t.Errorf("%s: racks = %d, want pinned 4", r.Arch, r.Racks)
		}
	}
	if len(knees) != 6 {
		t.Errorf("got %d knees, want 6", len(knees))
	}
}
