package experiments

import (
	"netdimm/internal/netfunc"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// Headline collects the numbers the paper quotes in its abstract and
// Sec. 5, as measured by this reproduction.
type Headline struct {
	// AvgReductionVsDNIC is the mean one-way latency reduction vs a PCIe
	// NIC across packet sizes (paper: 49.9%).
	AvgReductionVsDNIC float64
	// AvgReductionVsINIC is the mean reduction vs an integrated NIC
	// (paper: 25.9%).
	AvgReductionVsINIC float64
	// TraceReductionBySwitch is the per-switch-latency average per-packet
	// reduction on the cluster replays (paper: 40.6/36.0/33.1/25.3% at
	// 25/50/100/200ns).
	TraceReductionBySwitch map[sim.Time]float64
	// DPIWorst / L3FBest bound the Fig. 12b interference deltas (paper:
	// DPI up to +15.4%, L3F up to -30.9% vs iNIC).
	DPIWorst float64 // max Norm-1 over DPI cells
	L3FBest  float64 // max 1-Norm over L3F cells
}

// DefaultPackets is the packets per cell of every family that does not
// size its own cells — the Fig. 12(a) replays the headline numbers
// average, bandwidth, mixed, faultsweep and loadsweep — when the caller
// leaves it unset; netdimm-sim's -n flag defaults to it too, so a library
// call and the command line run the same cells.
const DefaultPackets = 1000

// RunHeadline executes the summary measurement suite. n controls the
// trace-replay length per cell; parallelism is the worker knob passed to
// each underlying sweep (the three studies themselves run in sequence —
// their cells are where the parallelism lives).
func RunHeadline(sp spec.Spec, n int, parallelism int) (Headline, error) {
	var h Headline

	fig11, _, err := Fig11Observed(sp, Fig11Sizes, parallelism, obs.Spec{})
	if err != nil {
		return h, err
	}
	h.AvgReductionVsDNIC = AverageReduction(fig11, false)
	h.AvgReductionVsINIC = AverageReduction(fig11, true)

	rows, err := Fig12a(sp, n, 3, parallelism)
	if err != nil {
		return h, err
	}
	h.TraceReductionBySwitch = Fig12aAverages(rows)

	for _, c := range Fig12b(sp, parallelism) {
		switch c.Kind {
		case netfunc.DPI:
			if d := c.Norm() - 1; d > h.DPIWorst {
				h.DPIWorst = d
			}
		case netfunc.L3F:
			if d := 1 - c.Norm(); d > h.L3FBest {
				h.L3FBest = d
			}
		}
	}
	return h, nil
}
