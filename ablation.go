package netdimm

import (
	"netdimm/internal/experiments"
)

// BandwidthResult reports the Sec. 5.2 sustained-throughput check for one
// architecture.
type BandwidthResult = experiments.BandwidthResult

// RunBandwidthWithConfig streams MTU frames at the line rate of the system
// described by cfg through each architecture and reports whether it
// sustains the offered rate (paper Sec. 5.2: at 40GbE all three do; the
// NetDIMM's single local channel has ample headroom). packets is the
// frame count per architecture (0 = experiments.DefaultPackets, 1000);
// parallelism follows the convention of RunFig4WithConfig.
func RunBandwidthWithConfig(cfg Config, packets int, parallelism int) (_ []BandwidthResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return experiments.Bandwidth(cfg, packets, parallelism)
}

// AblationReport bundles the design-choice ablation studies: what each
// NetDIMM mechanism contributes (Sec. 4's design decisions). Prefetch is
// payload-read behaviour per nPrefetcher degree, Clone the buffer-copy
// strategies for one MTU packet, Alloc the DMA-buffer allocation
// strategies, and HeaderCache header-read latency with and without nCache.
type AblationReport struct {
	Prefetch    []experiments.PrefetchAblationRow
	Clone       []experiments.CloneAblationRow
	Alloc       []experiments.AllocAblationRow
	HeaderCache []experiments.HeaderCacheAblationRow
}

// RunAblationsWithConfig runs all four ablation studies on the system
// described by cfg. parallelism follows the convention of
// RunFig4WithConfig; the clone and alloc studies are inherently sequential
// and ignore it.
func RunAblationsWithConfig(cfg Config, parallelism int) (_ AblationReport, err error) {
	defer guard(&err)
	var rep AblationReport
	if err := cfg.Validate(); err != nil {
		return rep, err
	}
	rep.Prefetch = experiments.PrefetchAblation(cfg, parallelism)
	rep.Clone = experiments.CloneAblation(cfg)
	if rep.Alloc, err = experiments.AllocAblation(cfg); err != nil {
		return rep, err
	}
	rep.HeaderCache = experiments.HeaderCacheAblation(cfg, parallelism)
	return rep, nil
}
