// Package workload generates the traffic the experiments replay: synthetic
// Facebook-cluster traces matching the published packet-size and locality
// distributions (paper Sec. 5.1, citing Roy et al. [60]), an Intel-MLC-style
// memory-pressure injector (Fig. 5), and a co-running-application memory
// traffic generator (Fig. 12b).
//
// The real Facebook traces require a data-sharing agreement and are not
// redistributable, so the generators here are the documented substitution:
// deterministic, seeded samplers of the distributions the paper itself
// reports (database: uniform 64-1514B, inter-cluster/inter-DC; webserver:
// ~90% < 300B, intra-DC; hadoop: ~41% < 100B and ~52% = 1514B,
// intra-cluster).
package workload

import (
	"fmt"

	"netdimm/internal/ethernet"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
)

// Cluster identifies one of the three production cluster types.
type Cluster int

const (
	// Database: packet sizes uniformly distributed between 64B and 1514B;
	// traffic mostly inter-cluster and inter-datacenter.
	Database Cluster = iota
	// Webserver: ~90% of packets smaller than 300B; traffic inter-cluster
	// but intra-datacenter.
	Webserver
	// Hadoop: ~41% of packets under 100B, ~52% at the 1514B MTU; traffic
	// intra-cluster.
	Hadoop
)

// Clusters lists all cluster types in presentation order.
var Clusters = []Cluster{Database, Webserver, Hadoop}

func (c Cluster) String() string {
	switch c {
	case Database:
		return "database"
	case Webserver:
		return "webserver"
	case Hadoop:
		return "hadoop"
	default:
		return fmt.Sprintf("Cluster(%d)", int(c))
	}
}

// SampleSize draws one packet size from the cluster's distribution.
func (c Cluster) SampleSize(r *sim.Rand) int {
	switch c {
	case Database:
		return r.Range(64, nic.MTU)
	case Webserver:
		if r.Float64() < 0.90 {
			return r.Range(64, 299)
		}
		return r.Range(300, nic.MTU)
	case Hadoop:
		x := r.Float64()
		switch {
		case x < 0.41:
			return r.Range(64, 99)
		case x < 0.41+0.52:
			return nic.MTU
		default:
			return r.Range(100, nic.MTU-1)
		}
	default:
		panic(fmt.Sprintf("workload: unknown cluster %d", int(c)))
	}
}

// SampleLocality draws the flow locality for one packet, following the
// paper's characterisation of each cluster's traffic pattern.
func (c Cluster) SampleLocality(r *sim.Rand) ethernet.Locality {
	x := r.Float64()
	switch c {
	case Database:
		// Mostly inter-cluster and inter-datacenter.
		switch {
		case x < 0.45:
			return ethernet.InterDatacenter
		case x < 0.90:
			return ethernet.IntraDatacenter
		default:
			return ethernet.IntraCluster
		}
	case Webserver:
		// Mostly inter-cluster but intra-datacenter.
		switch {
		case x < 0.80:
			return ethernet.IntraDatacenter
		case x < 0.95:
			return ethernet.IntraCluster
		default:
			return ethernet.InterDatacenter
		}
	case Hadoop:
		// Intra-cluster.
		switch {
		case x < 0.70:
			return ethernet.IntraCluster
		case x < 0.90:
			return ethernet.IntraRack
		default:
			return ethernet.IntraDatacenter
		}
	default:
		panic(fmt.Sprintf("workload: unknown cluster %d", int(c)))
	}
}

// Event is one packet arrival in a generated trace.
type Event struct {
	At       sim.Time
	Size     int
	Locality ethernet.Locality
}

// Validate checks that the event is one a generator can draw: a size in
// [1, nic.MTU] and one of the four localities.
func (e Event) Validate() error {
	if e.Size < 1 || e.Size > nic.MTU {
		return fmt.Errorf("packet size %d is outside [1, %d]", e.Size, nic.MTU)
	}
	if e.Locality < ethernet.IntraRack || e.Locality > ethernet.InterDatacenter {
		return fmt.Errorf("locality %d is not one of the four classes (0..%d)", e.Locality, ethernet.InterDatacenter)
	}
	return nil
}

// Packet converts the event to a nic.Packet.
func (e Event) Packet(id uint64) nic.Packet {
	return nic.Packet{ID: id, Size: e.Size, Born: e.At}
}

// Generator produces a deterministic packet stream for one cluster.
type Generator struct {
	Cluster Cluster
	// MeanGap is the mean exponential inter-arrival time.
	MeanGap sim.Time
	rng     *sim.Rand
	now     sim.Time
}

// NewGenerator returns a seeded generator. meanGap <= 0 defaults to the
// inter-arrival of a moderately loaded 40GbE port (~1.5us between packets).
func NewGenerator(c Cluster, meanGap sim.Time, seed uint64) *Generator {
	if meanGap <= 0 {
		meanGap = 1500 * sim.Nanosecond
	}
	return &Generator{Cluster: c, MeanGap: meanGap, rng: sim.NewRand(seed)}
}

// Next returns the next arrival.
func (g *Generator) Next() Event {
	g.now += g.rng.Exp(g.MeanGap)
	return Event{
		At:       g.now,
		Size:     g.Cluster.SampleSize(g.rng),
		Locality: g.Cluster.SampleLocality(g.rng),
	}
}

// Generate produces n arrivals.
func (g *Generator) Generate(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
