package nic

import (
	"netdimm/internal/nvdimmp"
	"netdimm/internal/sim"
)

// DefaultMemChannelBus returns NetDIMM register costs, as core.Device
// builds them.
func DefaultMemChannelBus() MemChannelBus {
	return MemChannelBus{Protocol: nvdimmp.DefaultTiming(), Media: 15 * sim.Nanosecond}
}

// Regs returns the register attachment: the PCIe link.
func (d DNIC) Regs() RegisterBus { return PCIeBus{Link: d.Link} }

// Regs returns the register attachment: the on-chip bus.
func (i INIC) Regs() RegisterBus { return i.Bus }
