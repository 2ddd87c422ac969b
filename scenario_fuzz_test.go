package netdimm

import (
	"strings"
	"testing"
	"time"
)

// FuzzReadScenario hardens the scenario-JSON entry point: arbitrary input
// must either fail with an error or produce a configuration that passes
// Validate and derives its own non-negative switch latency — never a panic,
// and never an invalid Config or a wrapped picosecond value leaking through.
func FuzzReadScenario(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"SwitchLatNs": 500}`)
	f.Add(`{"DRAM": "DDR5-4800", "NetworkGbps": 100}`)
	f.Add(`{"Fault": {"CorruptProb": 0.01, "MaxRetries": 8}}`)
	f.Add(`{"Fault": {"CorruptProb": 2}}`)
	f.Add(`{"NetworkGbps": -1}`)
	f.Add(`{"Unknown": true}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"SwitchLatNs": 1e309}`)
	f.Add(`{"SwitchLatNs": 18446744073709552}`) // wraps to 384ps in sim.Time
	f.Add(`{"SwitchLatNs": 9223372036854775}`)  // wraps negative in sim.Time
	f.Add("{\"PCIe\": \"x16 PCIe Gen5\", \"Fault\": {\"MemTimeoutProb\": 0.5, \"MemTimeoutNs\": 100}}")
	f.Add(`{"Fault": {"Failure": {"Outages": [{"Kind": "spine", "Index": 0, "StartNs": 1000, "EndNs": 5000}], "Burst": {"BadLossProb": 0.5, "GoodToBad": 0.01, "BadToGood": 0.1}}}}`)
	f.Add(`{"Fault": {"Failure": {"Outages": [{"Kind": "bogus", "StartNs": 5, "EndNs": 5}]}}}`)
	f.Add(`{"Collective": {"ChunkBytes": 70000}}`)
	f.Fuzz(func(t *testing.T, data string) {
		cfg, err := ReadScenario(strings.NewReader(data))
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("ReadScenario accepted %q but the config fails Validate: %v", data, verr)
		}
		d, derr := cfg.Derive()
		if derr != nil {
			t.Fatalf("ReadScenario accepted %q but the config does not derive: %v", data, derr)
		}
		if d.SwitchLatency < 0 || d.SwitchLatency.Duration() != time.Duration(cfg.SwitchLatNs) {
			t.Fatalf("ReadScenario accepted SwitchLatNs %d in %q, which derives as %v", cfg.SwitchLatNs, data, d.SwitchLatency)
		}
	})
}
