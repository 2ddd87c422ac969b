package stats

import "netdimm/internal/sim"

// Min returns the smallest sample.
func (h *Histogram) Min() sim.Time { return h.Percentile(0) }
