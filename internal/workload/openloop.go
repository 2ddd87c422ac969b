package workload

import (
	"fmt"
	"math"

	"netdimm/internal/nic"
	"netdimm/internal/sim"
)

// This file is the open-loop side of the workload plane: arrival processes
// whose timing does not react to the system under test. The closed-loop
// Generator above replays unloaded traces (Fig. 12a); OpenLoop drives the
// rack-scale load sweep, where the interesting quantity is how queueing
// delay grows as the offered rate approaches a bottleneck's capacity — so
// arrivals must keep coming whether or not the receiver has caught up
// (the methodology of latency-vs-offered-load evaluations such as Alian et
// al.'s kernel-bypass gem5 study).

// ArrivalProcess selects how the open-loop generator spaces arrivals.
type ArrivalProcess int

const (
	// Poisson draws exponential inter-arrival gaps (memoryless traffic,
	// the default).
	Poisson ArrivalProcess = iota
	// FixedRate spaces arrivals at exactly the mean gap (a pacer or
	// hardware packet generator).
	FixedRate
)

func (p ArrivalProcess) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case FixedRate:
		return "fixed"
	default:
		return fmt.Sprintf("ArrivalProcess(%d)", int(p))
	}
}

// ParseProcess resolves an arrival-process name; the empty string selects
// Poisson.
func ParseProcess(s string) (ArrivalProcess, error) {
	switch s {
	case "", "poisson":
		return Poisson, nil
	case "fixed":
		return FixedRate, nil
	default:
		return 0, fmt.Errorf("workload: unknown arrival process %q (want poisson or fixed)", s)
	}
}

// ParseCluster resolves a cluster name; the empty string selects Database.
func ParseCluster(s string) (Cluster, error) {
	switch s {
	case "", "database":
		return Database, nil
	case "webserver":
		return Webserver, nil
	case "hadoop":
		return Hadoop, nil
	default:
		return 0, fmt.Errorf("workload: unknown cluster %q (want database, webserver or hadoop)", s)
	}
}

// MeanSize returns the analytic expected packet size of the cluster's
// distribution in bytes. The load sweep uses it to convert an offered-load
// fraction into a mean inter-arrival gap without sampling.
func (c Cluster) MeanSize() float64 {
	mid := func(lo, hi int) float64 { return float64(lo+hi) / 2 }
	switch c {
	case Database:
		return mid(64, nic.MTU)
	case Webserver:
		return 0.90*mid(64, 299) + 0.10*mid(300, nic.MTU)
	case Hadoop:
		return 0.41*mid(64, 99) + 0.52*float64(nic.MTU) + 0.07*mid(100, nic.MTU-1)
	default:
		panic(fmt.Sprintf("workload: unknown cluster %d", int(c)))
	}
}

// MeanGapForLoad returns the per-source mean inter-arrival gap that makes
// `sources` identical open-loop generators of this cluster offer the given
// fraction of a line rate (in Gbps), counting the per-frame Ethernet
// overhead the wire pays. load is relative to one link: 1.0 saturates the
// receiver's link with the aggregate of all sources.
func (c Cluster) MeanGapForLoad(load float64, sources int, lineGbps float64) (sim.Time, error) {
	if load <= 0 || math.IsNaN(load) || math.IsInf(load, 0) {
		return 0, fmt.Errorf("workload: offered load must be positive and finite, got %g", load)
	}
	if sources < 1 {
		return 0, fmt.Errorf("workload: need at least one source, got %d", sources)
	}
	if lineGbps <= 0 {
		return 0, fmt.Errorf("workload: line rate must be positive, got %gGbps", lineGbps)
	}
	bits := (c.MeanSize() + nic.EthernetOverheadBytes) * 8
	aggGapSec := bits / (load * lineGbps * 1e9)
	return sim.Time(math.Round(aggGapSec * float64(sources) * float64(sim.Second))), nil
}

// OpenLoop is a seeded open-loop arrival generator for one traffic source:
// packet sizes and localities follow the cluster's published distribution,
// and arrival instants follow the configured process at MeanGap.
//
// Sizes and gaps come from two independent streams forked from one seed,
// so two generators with the same seed but different MeanGap emit the SAME
// packet sequence at different spacings. The load sweep leans on this:
// along one architecture's load axis only queueing changes, never the
// work, which keeps the latency curve monotone in offered load instead of
// noisy in the size draw.
type OpenLoop struct {
	Cluster Cluster
	Process ArrivalProcess
	// MeanGap is the mean inter-arrival time of this source.
	MeanGap sim.Time

	sizes *sim.Rand
	gaps  *sim.Rand
	now   sim.Time
}

// NewOpenLoop returns a seeded open-loop generator. meanGap must be
// positive.
func NewOpenLoop(c Cluster, proc ArrivalProcess, meanGap sim.Time, seed uint64) *OpenLoop {
	if meanGap <= 0 {
		panic(fmt.Sprintf("workload: open-loop mean gap %v", meanGap))
	}
	r := sim.NewRand(seed)
	return &OpenLoop{
		Cluster: c, Process: proc, MeanGap: meanGap,
		sizes: r.Fork(), gaps: r.Fork(),
	}
}

// Next returns the next arrival; times are strictly increasing.
func (g *OpenLoop) Next() Event {
	var gap sim.Time
	if g.Process == FixedRate {
		gap = g.MeanGap
	} else {
		gap = g.gaps.Exp(g.MeanGap)
	}
	if gap < 1 {
		gap = 1 // keep arrival instants strictly increasing
	}
	g.now += gap
	return Event{
		At:       g.now,
		Size:     g.Cluster.SampleSize(g.sizes),
		Locality: g.Cluster.SampleLocality(g.sizes),
	}
}

// LoadSpec is the load-generation block of a system specification: how the
// rack-scale load sweep shapes its traffic and its fabric buffers. The
// zero value is valid and means "use the sweep defaults" (8 hosts,
// database cluster, Poisson arrivals, 64-frame port buffers, knee factor
// 3). It is JSON-addressable from scenario files like the fault block.
type LoadSpec struct {
	// Hosts is the number of sender hosts fanning in to the one receiver
	// (the incast knob). 0 means the default of 8.
	Hosts int
	// Cluster names the traffic distribution: "database" (default),
	// "webserver" or "hadoop".
	Cluster string
	// Process names the arrival process: "poisson" (default) or "fixed".
	Process string
	// PortBuffer is the per-egress-port buffer in frames; arrivals beyond
	// it are tail-dropped. 0 means the default of 64.
	PortBuffer int
	// KneeFactor defines saturation: the knee is the highest offered load
	// whose p99 stays within KneeFactor x the lowest swept load's p99.
	// 0 means the default of 3.
	KneeFactor float64
}

// Validate checks the block; the zero value always passes.
func (l LoadSpec) Validate() error {
	if l.Hosts < 0 {
		return fmt.Errorf("load: Hosts must not be negative, got %d", l.Hosts)
	}
	if l.PortBuffer < 0 {
		return fmt.Errorf("load: PortBuffer must not be negative, got %d", l.PortBuffer)
	}
	if l.KneeFactor < 0 || math.IsNaN(l.KneeFactor) || math.IsInf(l.KneeFactor, 0) {
		return fmt.Errorf("load: KneeFactor must be finite and not negative, got %g", l.KneeFactor)
	}
	if l.KneeFactor > 0 && l.KneeFactor < 1 {
		return fmt.Errorf("load: KneeFactor below 1 would mark the baseline itself saturated, got %g", l.KneeFactor)
	}
	if _, err := ParseCluster(l.Cluster); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if _, err := ParseProcess(l.Process); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	return nil
}
