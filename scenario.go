package netdimm

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Named scenarios: curated variations of Table 1 that exercise the
// configuration plane end to end. Each is DefaultConfig with a handful of
// fields changed, so a scenario file needs to list only its deltas.
func scenarioPresets() map[string]Config {
	ddr5 := DefaultConfig()
	ddr5.DRAM = "DDR5-4800"

	gen3 := DefaultConfig()
	gen3.PCIe = "x8 PCIe Gen3"

	lossy := DefaultConfig()
	lossy.Fault = FaultConfig{
		CorruptProb: 0.001,
		MaxRetries:  8,
		Seed:        1,
	}

	return map[string]Config{
		"table1":     DefaultConfig(),
		"ddr5":       ddr5,
		"pcie-gen3":  gen3,
		"lossy-1pct": lossy,
	}
}

// Scenarios lists the named scenario presets in sorted order.
func Scenarios() []string {
	presets := scenarioPresets()
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LoadScenario resolves a scenario argument: a preset name from
// Scenarios(), or a path to a JSON file of Config fields applied on top of
// DefaultConfig. An empty string means "table1". The configuration is
// validated before it is returned.
func LoadScenario(s string) (Config, error) {
	if s == "" {
		s = "table1"
	}
	if cfg, ok := scenarioPresets()[s]; ok {
		return cfg, nil
	}
	if strings.HasSuffix(s, ".json") || strings.ContainsAny(s, "/\\") {
		return LoadScenarioFile(s)
	}
	return Config{}, fmt.Errorf("netdimm: unknown scenario %q (named scenarios: %s; or pass a .json file)",
		s, strings.Join(Scenarios(), ", "))
}

// LoadScenarioFile reads a JSON scenario file.
func LoadScenarioFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("netdimm: scenario: %w", err)
	}
	defer f.Close()
	cfg, err := ReadScenario(f)
	if err != nil {
		return Config{}, fmt.Errorf("netdimm: scenario %s: %w", path, err)
	}
	return cfg, nil
}

// ReadScenario decodes a JSON scenario over DefaultConfig: fields absent
// from the stream keep their Table 1 values, unknown fields are rejected,
// and the result is validated.
func ReadScenario(r io.Reader) (Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
