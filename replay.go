package netdimm

import (
	"io"
	"time"

	"netdimm/internal/experiments"
)

// ReplayResult summarises one architecture over a replayed trace file.
type ReplayResult struct {
	Arch    string
	Packets int
	Mean    time.Duration
	P50     time.Duration
	P99     time.Duration
}

// ReplayTraceFileWithConfig replays a trace written by cmd/netdimm-trace
// through the clos fabric under all three architectures on the system
// described by cfg. parallelism follows the convention of
// RunFig4WithConfig (each architecture is one cell).
func ReplayTraceFileWithConfig(cfg Config, r io.Reader, switchLatency time.Duration, seed uint64, parallelism int) (cluster string, results []ReplayResult, err error) {
	if err := cfg.Validate(); err != nil {
		return "", nil, err
	}
	h, rows, err := experiments.ReplayTraceFile(cfg.spec(), r, simT(switchLatency), seed, parallelism)
	if err != nil {
		return "", nil, err
	}
	for _, row := range rows {
		results = append(results, ReplayResult{
			Arch:    row.Arch,
			Packets: row.Packets,
			Mean:    toDuration(row.Mean),
			P50:     toDuration(row.P50),
			P99:     toDuration(row.P99),
		})
	}
	return h.Cluster.String(), results, nil
}

// MixedChannelResult reports the DDR5 mixed-channel demonstration: DDR and
// NetDIMM transactions sharing one channel via the asynchronous protocol.
type MixedChannelResult struct {
	DDRReads          int
	NetDIMMReads      int
	DDRMean           time.Duration
	NetDIMMMean       time.Duration
	OutOfOrder        uint64
	MaxOutstandingIDs int
}

// RunMixedChannelWithConfig demonstrates, on the system described by cfg,
// that a NetDIMM's non-deterministic local accesses coexist with
// deterministic DDR accesses on one channel (paper Sec. 2.2/4.1). It is
// RunMixedChannelObserved without the observation.
func RunMixedChannelWithConfig(cfg Config, n int, seed uint64) (MixedChannelResult, error) {
	r, _, err := RunMixedChannelObserved(cfg, n, seed)
	return r, err
}
