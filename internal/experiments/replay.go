package experiments

import (
	"fmt"
	"io"

	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/trace"
	"netdimm/internal/workload"
)

// ReplayResult summarises one architecture's run over a recorded trace.
type ReplayResult struct {
	Arch    string
	Packets int
	Mean    sim.Time
	P50     sim.Time
	P99     sim.Time
}

// ReplayTrace runs a recorded packet trace (from cmd/netdimm-trace, or any
// events slice) through the clos fabric at sp's switch latency under all
// three architectures and reports per-packet one-way latency statistics —
// the file-driven variant of Fig. 12(a), run as one Fig. 12(a) cell whose
// NetDIMM endpoints are seeded seed+1 and seed+2.
func ReplayTrace(sp spec.Spec, events []workload.Event, seed uint64) ([]ReplayResult, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("experiments: empty trace")
	}
	next := 0
	src := func() workload.Event { next++; return events[next-1] }
	var hists [3]stats.Histogram
	d := sp.MustDerive()
	rows := []Fig12aRow{{SwitchLatency: d.SwitchLatency}}
	if err := fig12aCell(d, src, len(events), seed, rows, &hists); err != nil {
		return nil, err
	}
	out := make([]ReplayResult, len(Archs))
	for i, arch := range Archs {
		h := &hists[i]
		out[i] = ReplayResult{Arch: arch, Packets: h.Count(), Mean: h.Mean(), P50: h.Percentile(50), P99: h.Percentile(99)}
	}
	return out, nil
}

// ReplayTraceFile reads a trace stream and replays it.
func ReplayTraceFile(sp spec.Spec, r io.Reader, seed uint64) (trace.Header, []ReplayResult, error) {
	h, events, err := trace.Read(r)
	if err != nil {
		return trace.Header{}, nil, err
	}
	res, err := ReplayTrace(sp, events, seed)
	return h, res, err
}
