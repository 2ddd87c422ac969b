package experiments

import (
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// LoadSweep is LoadSweepObserved without observability.
func LoadSweep(sp spec.Spec, loads []float64, packets int, seed uint64, parallelism int) ([]LoadRow, []LoadKnee, error) {
	rows, knees, _, err := LoadSweepObserved(sp, loads, packets, seed, parallelism, obs.Spec{})
	return rows, knees, err
}

// RackSweep is RackSweepObserved without observability.
func RackSweep(sp spec.Spec, racks []int, loads []float64, packets int, seed uint64, parallelism int) ([]RackRow, []RackKnee, error) {
	rows, knees, _, err := RackSweepObserved(sp, racks, loads, packets, seed, parallelism, obs.Spec{})
	return rows, knees, err
}

// FaultSweep is FaultSweepObserved without observability.
func FaultSweep(sp spec.Spec, rates []float64, packets int, seed uint64, parallelism int) ([]FaultRow, error) {
	rows, _, err := FaultSweepObserved(sp, rates, packets, seed, parallelism, obs.Spec{})
	return rows, err
}

// MixedChannel is MixedChannelObserved without observability.
func MixedChannel(sp spec.Spec, n int, seed uint64) (MixedChannelResult, error) {
	res, _, err := MixedChannelObserved(sp, n, seed, obs.Spec{})
	return res, err
}

// FailSweep is FailSweepObserved without observability.
func FailSweep(sp spec.Spec, outages []sim.Time, packets int, seed uint64, parallelism int) ([]FailRow, error) {
	rows, _, err := FailSweepObserved(sp, outages, packets, seed, parallelism, obs.Spec{})
	return rows, err
}

// CollSweep is CollSweepObserved without observability.
func CollSweep(sp spec.Spec, ranks []int, ops []string, seed uint64, parallelism int) ([]CollRow, error) {
	rows, _, err := CollSweepObserved(sp, ranks, ops, seed, parallelism, obs.Spec{})
	return rows, err
}

// Fig7BurstSpan returns the duration of one packet's DMA burst — the
// paper highlights a 24-cacheline burst spanning ~143ns.
func Fig7BurstSpan(points []Fig7Point, burst int) sim.Time {
	var first, last sim.Time
	seen := false
	for _, p := range points {
		if p.Burst != burst {
			continue
		}
		if !seen {
			first = p.RelTime
			seen = true
		}
		last = p.RelTime
	}
	return last - first
}
