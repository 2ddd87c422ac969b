package driver

import (
	"netdimm/internal/core"
	"netdimm/internal/nic"
	"netdimm/internal/pcie"
)

// NewDNICMachine returns the Table 1 discrete-NIC endpoint: x8 PCIe Gen4.
func NewDNICMachine(zeroCopy bool) *HWDriver {
	return NewMachine(nic.NewDNICWith(pcie.NewLink(pcie.Gen4, 8)), DefaultCosts(), zeroCopy)
}

// NewINICMachine returns the Table 1 integrated-NIC endpoint.
func NewINICMachine(zeroCopy bool) *HWDriver {
	return NewMachine(nic.NewINIC(), DefaultCosts(), zeroCopy)
}

// NewNetDIMMMachine builds a Table 1 NetDIMM endpoint with the given
// device seed, its NET_0 zone right above the 16GB of host DDR (the base
// spec.Derived.ZoneBase(0) returns for Table 1).
func NewNetDIMMMachine(seed uint64) (*NetDIMMDriver, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return NewNetDIMMMachineWith(cfg, 16<<30, DefaultCosts())
}
