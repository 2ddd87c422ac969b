package driver

import "netdimm/internal/cpu"

// CostsFromParams derives the software-stack cost set from an arbitrary
// core parameter set. A system configuration whose core deviates from
// Table 1 has no hand-calibrated constants to fall back on, so its costs
// come from the first-order core model instead.
func CostsFromParams(p cpu.Params) Costs {
	c := cpu.Derive(p)
	return Costs{
		SKBAlloc:         c.SKBAlloc,
		CopyFixed:        c.CopyFixed,
		CopyBytesPerSec:  c.CopyBytesPerSec,
		PollCheck:        c.PollCheck,
		DescWrite:        c.DescWrite,
		ZcpyPin:          c.ZcpyPin,
		AllocCacheLookup: c.AllocCacheLookup,
		SlowAllocPages:   c.SlowAllocPages,
		FlushBase:        c.FlushBase,
		FlushPerLine:     c.FlushPerLine,
	}
}
