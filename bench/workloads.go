package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"netdimm"
	"netdimm/internal/collective"
	"netdimm/internal/nic"
)

// The four pinned workloads. Each is one call into the public netdimm
// facade at parallelism 1, sized so that several repeats fit in one timed
// run on a 2-core host, and each has a set-up twin: the same cells with
// traffic at its minimum, so the difference between the two is the cost
// of moving packets. README.md records why each workload exists and which
// layer it isolates; the sizes are part of that design:
//
//   - rack keeps 128 hosts so set-up (512 NetDIMM devices) stays over a
//     third of wall time, and each NetDIMM receiver sees about 190
//     packets, far below the allocCache's 16K-packet drain point.
//   - incast sends 40 000 packets into one NetDIMM receiver, which drains
//     its allocCache after about 16K and takes the slow path from then on.
//   - latency stays at 5 000 packets per cell, below the drain point, so it
//     times the device model alone.
//   - allreduce keeps every step message at least 4 KiB, so each one
//     splits into several MTU frames.
var (
	rackPinned      = rackSize{hosts: 128, packets: 24000, racks: []int{2}, loads: []float64{0.2}}
	incastPinned    = incastSize{hosts: 32, packets: 40000, loads: []float64{0.22}}
	latencyPinned   = latencySize{packets: 5000, seeds: 2}
	allreducePinned = collSize{ranks: []int{16, 32, 64}, payload: 256 << 10}
)

// collTwinBytes is the allreduce set-up twin's payload: one element per
// rank, so every schedule step still sends one minimum frame.
const collTwinBytes = 64

// workloadDef is one pinned benchmark input.
type workloadDef struct {
	name string
	why  string
	// call runs the workload's facade call; twin selects the set-up twin.
	call func(seed uint64, twin bool) (callResult, error)
	// replica re-runs the full call's cells through the benchmark's own
	// traced copy of the cell code and returns its rows in canonical form.
	replica func(seed uint64, tr *tracer) ([]string, error)
}

var workloads = []*workloadDef{
	{
		name:    "rack",
		why:     "128-host clos sweep: engine, Ethernet ports, fabric ECMP and all drivers; set-up is over a third of wall time",
		call:    rackPinned.call,
		replica: rackPinned.replica,
	},
	{
		name:    "incast",
		why:     "32-to-1 incast past the knee: the NetDIMM receiver drains its allocCache after 16K packets",
		call:    incastPinned.call,
		replica: incastPinned.replica,
	},
	{
		name:    "latency",
		why:     "Fig. 12a per-packet driver and NetDIMM device path with no topology and no queueing",
		call:    latencyPinned.call,
		replica: latencyPinned.replica,
	},
	{
		name:    "allreduce",
		why:     "ring allreduce over the fabric: bulk MTU frames on few flows, the collective executor and Verify",
		call:    allreducePinned.call,
		replica: allreducePinned.replica,
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// callResult is what one facade call produced.
type callResult struct {
	// Rows are the facade rows in canonical form, one string per row.
	Rows []string `json:"rows"`
	// Digest is the SHA-256 of every row the call returned, knees included.
	Digest string `json:"digest"`
	// Offered counts the packets (frames, for allreduce) the call offered.
	Offered int `json:"offered"`
	Cells   int `json:"cells"`
	// Bad lists the cells that broke conservation, one message each.
	Bad []string `json:"bad,omitempty"`
}

// canon renders one facade row (or knee) field by field; every field is
// printed exactly, so equal strings mean equal rows.
func canon(v any) string { return fmt.Sprintf("%+v", v) }

func digest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// packets returns the per-cell packet count of the full call or of its
// set-up twin.
func packets(full int, twin bool) int {
	if twin {
		return 1
	}
	return full
}

// rackSize shapes the rack workload: a RunRackSweepWithConfig call.
type rackSize struct {
	hosts, packets int
	racks          []int
	loads          []float64
}

func (s rackSize) config() netdimm.Config {
	cfg := netdimm.DefaultConfig()
	cfg.Load.Hosts = s.hosts
	return cfg
}

func (s rackSize) call(seed uint64, twin bool) (callResult, error) {
	n := packets(s.packets, twin)
	rows, knees, err := netdimm.RunRackSweepWithConfig(s.config(), s.racks, s.loads, n, seed, 1)
	if err != nil {
		return callResult{}, err
	}
	res := callResult{Cells: len(rows), Offered: n * len(rows)}
	for _, r := range rows {
		res.Rows = append(res.Rows, canon(r))
		if r.Delivered+r.Dropped != n {
			res.Bad = append(res.Bad, fmt.Sprintf("%s ecn=%v load=%g: delivered %d + dropped %d != offered %d",
				r.Arch, r.ECN, r.OfferedLoad, r.Delivered, r.Dropped, n))
		}
	}
	all := append([]string(nil), res.Rows...)
	for _, k := range knees {
		all = append(all, canon(k))
	}
	res.Digest = digest(all)
	return res, nil
}

// incastSize shapes the incast workload: a RunLoadSweepWithConfig call.
type incastSize struct {
	hosts, packets int
	loads          []float64
}

func (s incastSize) config() netdimm.Config {
	cfg := netdimm.DefaultConfig()
	cfg.Load.Hosts = s.hosts
	return cfg
}

func (s incastSize) call(seed uint64, twin bool) (callResult, error) {
	n := packets(s.packets, twin)
	rows, knees, err := netdimm.RunLoadSweepWithConfig(s.config(), s.loads, n, seed, 1)
	if err != nil {
		return callResult{}, err
	}
	res := callResult{Cells: len(rows), Offered: n * len(rows)}
	for _, r := range rows {
		res.Rows = append(res.Rows, canon(r))
		if r.Delivered+r.Dropped != n {
			res.Bad = append(res.Bad, fmt.Sprintf("%s load=%g: delivered %d + dropped %d != offered %d",
				r.Arch, r.OfferedLoad, r.Delivered, r.Dropped, n))
		}
	}
	all := append([]string(nil), res.Rows...)
	for _, k := range knees {
		all = append(all, canon(k))
	}
	res.Digest = digest(all)
	return res, nil
}

// latencySize shapes the latency workload: RunFig12aWithConfig for seeds
// seed .. seed+seeds-1.
type latencySize struct {
	packets, seeds int
}

// latencyArchs is the number of architectures each Fig. 12a packet is
// timed on.
const latencyArchs = 3

func (s latencySize) call(seed uint64, twin bool) (callResult, error) {
	n := packets(s.packets, twin)
	var res callResult
	for sd := seed; sd < seed+uint64(s.seeds); sd++ {
		rows, err := netdimm.RunFig12aWithConfig(netdimm.DefaultConfig(), n, sd, 1)
		if err != nil {
			return callResult{}, err
		}
		for _, r := range rows {
			res.Rows = append(res.Rows, canon(r))
			if r.DNICMean <= 0 || r.INICMean <= 0 || r.NetDIMMMean <= 0 {
				res.Bad = append(res.Bad, fmt.Sprintf("seed %d %s switch=%v: a mean latency is not positive", sd, r.Cluster, r.SwitchLatency))
			}
		}
		res.Cells += len(rows)
		res.Offered += len(rows) * n * latencyArchs
	}
	res.Digest = digest(res.Rows)
	return res, nil
}

// collSize shapes the allreduce workload: a RunCollSweepWithConfig call.
type collSize struct {
	ranks   []int
	payload int
}

func (s collSize) payloadBytes(twin bool) int {
	if twin {
		return collTwinBytes
	}
	return s.payload
}

func collConfig(payload int) netdimm.Config {
	cfg := netdimm.DefaultConfig()
	cfg.Collective.PayloadBytes = payload
	return cfg
}

func (s collSize) call(seed uint64, twin bool) (callResult, error) {
	payload := s.payloadBytes(twin)
	rows, err := netdimm.RunCollSweepWithConfig(collConfig(payload), s.ranks, []string{"allreduce"}, seed, 1)
	if err != nil {
		return callResult{}, err
	}
	res := callResult{Cells: len(rows)}
	for _, r := range rows {
		res.Rows = append(res.Rows, canon(r))
		res.Offered += r.Frames
		messages, frames := allreduceTraffic(r.Ranks, payload)
		if r.Dropped != 0 || r.Delivered != messages || r.Frames != frames {
			res.Bad = append(res.Bad, fmt.Sprintf("%s ranks=%d: delivered %d/%d messages, %d/%d frames, %d dropped",
				r.Arch, r.Ranks, r.Delivered, messages, r.Frames, frames, r.Dropped))
		}
	}
	res.Digest = digest(res.Rows)
	return res, nil
}

// allreduceTraffic is the number of messages and frames a complete ring
// allreduce of payload bytes over ranks ranks delivers: every scheduled
// send, each split into MTU-sized frames (at least one).
func allreduceTraffic(ranks, payload int) (messages, frames int) {
	elems := payload / 8
	if elems < 1 {
		elems = 1
	}
	plan := collective.NewPlan(collective.AllReduce, ranks)
	for _, steps := range plan.Steps {
		for _, st := range steps {
			if st.SendTo < 0 {
				continue
			}
			lo, hi := 0, elems
			if st.SendChunk >= 0 {
				lo, hi = collective.ChunkBounds(elems, ranks, st.SendChunk)
			}
			nf := (8*(hi-lo) + nic.MTU - 1) / nic.MTU
			if nf < 1 {
				nf = 1
			}
			messages++
			frames += nf
		}
	}
	return messages, frames
}
