package netdimm

import (
	"reflect"
	"testing"
)

// TestEveryConfigFieldChangesOutput keeps Config to knobs that do
// something: every top-level scalar field needs an entry below with a
// second valid value and cheap runs whose output that value changes. A
// new field without an entry fails, and so does an entry whose run prints
// the same bytes as DefaultConfig. The struct blocks (Fault, Obs, Load,
// Fabric, Collective) have their own tests.
func TestEveryConfigFieldChangesOutput(t *testing.T) {
	runs := map[string]func(Config) (string, error){
		"fig11": func(cfg Config) (string, error) {
			rows, _, err := RunFig11Observed(cfg, []int{64, 1514}, 1)
			return Fig11CSV(rows), err
		},
		// The metrics name every NetDIMM rank, so they see the capacity.
		"fig11 -metrics": func(cfg Config) (string, error) {
			cfg.Obs.Metrics = true
			rows, ob, err := RunFig11Observed(cfg, []int{64}, 1)
			return Fig11CSV(rows) + ob.MetricsCSV(), err
		},
		"loadsweep": func(cfg Config) (string, error) {
			rows, _, err := RunLoadSweepWithConfig(cfg, []float64{0.5}, 200, 1, 1)
			return LoadSweepCSV(rows), err
		},
	}
	// The switch latency reaches both the analytic single-switch path
	// (fig11) and the event-driven fabric (loadsweep).
	knobs := map[string]struct {
		set  func(*Config)
		runs []string
	}{
		"DRAM":          {func(c *Config) { c.DRAM = "DDR5-4800" }, []string{"fig11"}},
		"NetworkGbps":   {func(c *Config) { c.NetworkGbps = 100 }, []string{"fig11"}},
		"PCIe":          {func(c *Config) { c.PCIe = "x8 PCIe Gen3" }, []string{"fig11"}},
		"SwitchLatNs":   {func(c *Config) { c.SwitchLatNs = 500 }, []string{"fig11", "loadsweep"}},
		"NetDIMMSizeGB": {func(c *Config) { c.NetDIMMSizeGB = 32 }, []string{"fig11 -metrics"}},
	}

	base := map[string]string{}
	output := func(run string, cfg Config) string {
		t.Helper()
		out, err := runs[run](cfg)
		if err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		return out
	}
	seen := map[string]bool{}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Type.Kind() == reflect.Struct {
			continue
		}
		seen[f.Name] = true
		k, ok := knobs[f.Name]
		if !ok {
			t.Errorf("Config.%s has no entry here: give it a value and a run it changes, or delete the field", f.Name)
			continue
		}
		cfg := DefaultConfig()
		k.set(&cfg)
		if reflect.DeepEqual(cfg, DefaultConfig()) {
			t.Errorf("Config.%s: the entry's value is the default", f.Name)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Config.%s: the entry's value is invalid: %v", f.Name, err)
			continue
		}
		for _, run := range k.runs {
			if _, ok := base[run]; !ok {
				base[run] = output(run, DefaultConfig())
			}
			if output(run, cfg) == base[run] {
				t.Errorf("Config.%s changes no %s output: it is not a knob", f.Name, run)
			}
		}
	}
	for name := range knobs {
		if !seen[name] {
			t.Errorf("entry %s names no top-level scalar Config field", name)
		}
	}
}
