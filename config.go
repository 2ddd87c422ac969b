package netdimm

import (
	"netdimm/internal/collective"
	"netdimm/internal/fabric"
	"netdimm/internal/fault"
	"netdimm/internal/obs"
	"netdimm/internal/spec"
	"netdimm/internal/workload"
)

// FaultConfig is Config.Fault: deterministic fault injection (frame loss
// and corruption, switch-port tail drops, NVDIMM-P RDY timeouts) and the
// retry/backoff policies that recover from it.
type FaultConfig = fault.Spec

// ObsConfig is Config.Obs: per-packet lifecycle span tracing (Trace) and
// named counters and time series (Metrics).
type ObsConfig = obs.Spec

// LoadConfig is Config.Load, the load sweep's traffic: incast fan-in,
// cluster distribution, arrival process, egress buffer and knee factor.
type LoadConfig = workload.LoadSpec

// FabricConfig is Config.Fabric, the switched topology: leaf and spine
// counts, the ECMP flow-hash seed and the ECN marking threshold and
// sender backoff.
type FabricConfig = fabric.Spec

// CollectiveConfig is Config.Collective, the `collsweep` experiment's
// operation, rank count, payload and chunk sizes.
type CollectiveConfig = collective.Spec

// Config is the simulated system configuration — the paper's Table 1. It
// is the internal configuration plane's one specification type, so every
// machine constructor and experiment runner derives its per-package
// parameters (software costs, device config, DRAM timing, PCIe link,
// Ethernet fabric, NET_i zone placement) from the Config the caller
// passed. Validate returns an actionable error for the first
// inconsistency, and every entry point that accepts a Config validates it
// first; Table renders it as the paper's Table 1. A zero Fault or Obs
// block injects nothing and records nothing; a zero Load, Fabric or
// Collective block selects its sweep's defaults and affects no other.
//
// Only the knobs that change some output are fields. The CPU enters the
// model through one driver cost set, calibrated to Fig. 11 for Table 1's
// core, and every experiment places one NetDIMM behind Table 1's 16GB of
// two-channel host DDR, so Table 1's core rows (count, clock, issue width,
// ROB/IQ/LQ/SQ sizes, cache capacities and latencies), host DDR size,
// channel count and NetDIMM count are fixed and printed as such by Table.
type Config = spec.Spec

// DefaultConfig returns Table 1 of the paper.
func DefaultConfig() Config { return spec.TableOne() }
