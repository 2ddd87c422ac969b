package driver

import "netdimm/internal/core"

// NewNetDIMMMachine builds a Table 1 NetDIMM endpoint with the given
// device seed, its NET_0 zone right above the 16GB of host DDR (the base
// spec.Derived.ZoneBase(0) returns for Table 1).
func NewNetDIMMMachine(seed uint64) (*NetDIMMDriver, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return NewNetDIMMMachineWith(cfg, 16<<30, DefaultCosts())
}
