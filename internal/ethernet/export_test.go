package ethernet

import "netdimm/internal/sim"

// Link40G returns the paper's 40GbE link with a typical short-reach PHY.
func Link40G() Link { return LinkGbps(40) }

// NewFabric returns a clos fabric of 40GbE links with the given switch
// latency.
func NewFabric(switchLatency sim.Time) Fabric {
	return NewFabricWith(Link40G(), switchLatency)
}
