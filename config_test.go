package netdimm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestEveryConfigFieldChangesOutput keeps Config to knobs that do
// something: every scalar field, top-level or inside a struct block
// (Fault, including its Failure schedule, Obs, Load, Fabric, Collective),
// needs an entry below with a second valid value and cheap runs whose
// output that value changes. An entry may first apply a base where the
// field matters (MemTimeoutNs only acts with MemTimeoutProb > 0); the run
// then compares the base against the base plus the value. A new field
// without an entry fails, and so does an entry whose run prints the same
// bytes as its base.
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
		// Whatever cfg.Obs collects: the trace and the metrics.
		"fig11 observed": func(cfg Config) (string, error) {
			rows, ob, err := RunFig11Observed(cfg, []int{64}, 1)
			var trace bytes.Buffer
			if err == nil {
				err = ob.WriteTrace(&trace)
			}
			return Fig11CSV(rows) + ob.MetricsCSV() + trace.String(), err
		},
		"loadsweep": func(cfg Config) (string, error) {
			rows, knees, err := RunLoadSweepWithConfig(cfg, []float64{0.05, 0.5}, 200, 1, 1)
			return LoadSweepCSV(rows) + fmt.Sprint(knees), err
		},
		"racksweep": func(cfg Config) (string, error) {
			rows, knees, err := RunRackSweepWithConfig(cfg, nil, []float64{0.3}, 200, 1, 1)
			return RackSweepCSV(rows) + fmt.Sprint(knees), err
		},
		"faultsweep": func(cfg Config) (string, error) {
			rows, _, _, err := RunFaultSweepObserved(cfg, []float64{0.2}, 40, 1, 1)
			return FaultSweepCSV(rows), err
		},
		"collsweep": func(cfg Config) (string, error) {
			rows, err := RunCollSweepWithConfig(cfg, nil, nil, 1, 1)
			return CollSweepCSV(rows), err
		},
	}
	// The rack sweep runs one rack count, the spec's, over 8 hosts; the
	// collective sweep one small allreduce.
	rack := func(c *Config) { c.Load.Hosts, c.Fabric.Leaves = 8, 2 }
	coll := func(c *Config) { c.Collective = CollectiveConfig{Op: "allreduce", Ranks: 4, PayloadBytes: 8 << 10} }
	// The switch latency reaches both the analytic single-switch path
	// (fig11) and the event-driven fabric (loadsweep).
	knobs := map[string]struct {
		base func(*Config) // nil: DefaultConfig
		set  func(*Config)
		runs []string
	}{
		"DRAM":          {nil, func(c *Config) { c.DRAM = "DDR5-4800" }, []string{"fig11"}},
		"NetworkGbps":   {nil, func(c *Config) { c.NetworkGbps = 100 }, []string{"fig11"}},
		"PCIe":          {nil, func(c *Config) { c.PCIe = "x8 PCIe Gen3" }, []string{"fig11"}},
		"SwitchLatNs":   {nil, func(c *Config) { c.SwitchLatNs = 500 }, []string{"fig11", "loadsweep"}},
		"NetDIMMSizeGB": {nil, func(c *Config) { c.NetDIMMSizeGB = 32 }, []string{"fig11 -metrics"}},

		"Fault.CorruptProb":    {nil, func(c *Config) { c.Fault.CorruptProb = 0.1 }, []string{"faultsweep"}},
		"Fault.PortDropProb":   {nil, func(c *Config) { c.Fault.PortDropProb = 0.1 }, []string{"faultsweep"}},
		"Fault.MaxRetries":     {nil, func(c *Config) { c.Fault.MaxRetries = 1 }, []string{"faultsweep"}},
		"Fault.RetryBaseNs":    {nil, func(c *Config) { c.Fault.RetryBaseNs = 3000 }, []string{"faultsweep"}},
		"Fault.RetryCapNs":     {nil, func(c *Config) { c.Fault.RetryCapNs = 1000 }, []string{"faultsweep"}},
		"Fault.MemTimeoutProb": {nil, func(c *Config) { c.Fault.MemTimeoutProb = 0.3 }, []string{"faultsweep"}},
		"Fault.MemTimeoutNs": {func(c *Config) { c.Fault.MemTimeoutProb = 0.3 },
			func(c *Config) { c.Fault.MemTimeoutNs = 500 }, []string{"faultsweep"}},
		"Fault.MemMaxRetries": {func(c *Config) { c.Fault.MemTimeoutProb = 0.5 },
			func(c *Config) { c.Fault.MemMaxRetries = 1 }, []string{"faultsweep"}},
		"Fault.Seed": {nil, func(c *Config) { c.Fault.Seed = 7 }, []string{"faultsweep"}},
		"Fault.Failure.Seed": {func(c *Config) { c.Fault.Failure.Burst.GoodLossProb = 0.05 },
			func(c *Config) { c.Fault.Failure.Seed = 7 }, []string{"loadsweep"}},
		"Fault.Failure.Burst.GoodLossProb": {nil, func(c *Config) { c.Fault.Failure.Burst.GoodLossProb = 0.05 }, []string{"loadsweep"}},
		"Fault.Failure.Burst.BadLossProb": {func(c *Config) { c.Fault.Failure.Burst.GoodToBad = 0.05 },
			func(c *Config) { c.Fault.Failure.Burst.BadLossProb = 0.5 }, []string{"loadsweep"}},
		"Fault.Failure.Burst.GoodToBad": {func(c *Config) { c.Fault.Failure.Burst.BadLossProb = 0.5 },
			func(c *Config) { c.Fault.Failure.Burst.GoodToBad = 0.05 }, []string{"loadsweep"}},
		"Fault.Failure.Burst.BadToGood": {func(c *Config) { c.Fault.Failure.Burst.BadLossProb, c.Fault.Failure.Burst.GoodToBad = 0.5, 0.05 },
			func(c *Config) { c.Fault.Failure.Burst.BadToGood = 0.5 }, []string{"loadsweep"}},

		"Obs.Trace":   {nil, func(c *Config) { c.Obs.Trace = true }, []string{"fig11 observed"}},
		"Obs.Metrics": {nil, func(c *Config) { c.Obs.Metrics = true }, []string{"fig11 observed"}},

		"Load.Hosts":      {nil, func(c *Config) { c.Load.Hosts = 4 }, []string{"loadsweep"}},
		"Load.Cluster":    {nil, func(c *Config) { c.Load.Cluster = "hadoop" }, []string{"loadsweep"}},
		"Load.Process":    {nil, func(c *Config) { c.Load.Process = "fixed" }, []string{"loadsweep"}},
		"Load.PortBuffer": {nil, func(c *Config) { c.Load.PortBuffer = 2 }, []string{"loadsweep"}},
		"Load.KneeFactor": {nil, func(c *Config) { c.Load.KneeFactor = 100 }, []string{"loadsweep"}},

		"Fabric.Leaves":       {rack, func(c *Config) { c.Fabric.Leaves = 4 }, []string{"racksweep"}},
		"Fabric.Spines":       {rack, func(c *Config) { c.Fabric.Spines = 1 }, []string{"racksweep"}},
		"Fabric.ECNThreshold": {rack, func(c *Config) { c.Fabric.ECNThreshold = 1 }, []string{"racksweep"}},
		"Fabric.ECNBackoffNs": {func(c *Config) { rack(c); c.Fabric.ECNThreshold = 1 },
			func(c *Config) { c.Fabric.ECNBackoffNs = 5000 }, []string{"racksweep"}},
		"Fabric.Seed": {rack, func(c *Config) { c.Fabric.Seed = 7 }, []string{"racksweep"}},

		"Collective.Op":           {coll, func(c *Config) { c.Collective.Op = "broadcast" }, []string{"collsweep"}},
		"Collective.Ranks":        {coll, func(c *Config) { c.Collective.Ranks = 8 }, []string{"collsweep"}},
		"Collective.PayloadBytes": {coll, func(c *Config) { c.Collective.PayloadBytes = 16 << 10 }, []string{"collsweep"}},
		"Collective.ChunkBytes":   {coll, func(c *Config) { c.Collective.ChunkBytes = 256 }, []string{"collsweep"}},
	}

	outputs := map[string]string{}
	output := func(run string, cfg Config) string {
		t.Helper()
		key := run + fmt.Sprintf("%#v", cfg)
		if out, ok := outputs[key]; ok {
			return out
		}
		out, err := runs[run](cfg)
		if err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		outputs[key] = out
		return out
	}
	// The scalar fields, by dotted path; a slice such as
	// Fault.Failure.Outages is not a scalar.
	var fields []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(prefix+f.Name+".", f.Type)
			case reflect.Slice, reflect.Map:
			default:
				fields = append(fields, prefix+f.Name)
			}
		}
	}
	walk("", reflect.TypeOf(Config{}))

	seen := map[string]bool{}
	for _, name := range fields {
		seen[name] = true
		k, ok := knobs[name]
		if !ok {
			t.Errorf("Config.%s has no entry here: give it a value and a run it changes, or delete the field", name)
			continue
		}
		base := DefaultConfig()
		if k.base != nil {
			k.base(&base)
		}
		cfg := base
		k.set(&cfg)
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("Config.%s: the entry's value is its base's", name)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Config.%s: the entry's value is invalid: %v", name, err)
			continue
		}
		for _, run := range k.runs {
			if output(run, cfg) == output(run, base) {
				t.Errorf("Config.%s changes no %s output: it is not a knob", name, run)
			}
		}
	}
	for name := range knobs {
		if !seen[name] {
			t.Errorf("entry %s names no scalar Config field", name)
		}
	}
}
