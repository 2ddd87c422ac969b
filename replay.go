package netdimm

import (
	"io"

	"netdimm/internal/experiments"
)

// ReplayResult summarises one architecture over a replayed trace file.
type ReplayResult = experiments.ReplayResult

// ReplayTraceFileWithConfig replays a trace written by cmd/netdimm-trace
// through the clos fabric under all three architectures on the system
// described by cfg, as one sequential cell.
func ReplayTraceFileWithConfig(cfg Config, r io.Reader, seed uint64) (cluster string, results []ReplayResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return "", nil, err
	}
	h, rows, err := experiments.ReplayTraceFile(cfg, r, seed)
	if err != nil {
		return "", nil, err
	}
	return h.Cluster.String(), rows, nil
}

// MixedChannelResult reports the DDR5 mixed-channel demonstration: DDR and
// NetDIMM transactions sharing one channel via the asynchronous protocol.
type MixedChannelResult = experiments.MixedChannelResult

// RunMixedChannelObserved demonstrates, on the system described by cfg,
// that a NetDIMM's non-deterministic local accesses coexist with
// deterministic DDR accesses on one channel (paper Sec. 2.2/4.1). The
// observability plane is armed per cfg.Obs: DDR controller transaction
// spans and queue depth, NetDIMM device metrics, the NVDIMM-P
// outstanding-transaction series and an engine probe, all under one
// "mixed" cell. A zero cfg.Obs returns a nil Observation. n is the number
// of reads (0 = experiments.DefaultPackets, 1000).
func RunMixedChannelObserved(cfg Config, n int, seed uint64) (_ MixedChannelResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return MixedChannelResult{}, nil, err
	}
	r, o, err := experiments.MixedChannelObserved(cfg, n, seed, cfg.Obs)
	if err != nil {
		return MixedChannelResult{}, nil, err
	}
	return r, newObservation(o), nil
}
