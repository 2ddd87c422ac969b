package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/experiments"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// ClusterName identifies one of the three Facebook production cluster
// types whose traffic the trace experiments replay.
type ClusterName string

// The three clusters of Sec. 5.1.
const (
	Database  ClusterName = "database"
	Webserver ClusterName = "webserver"
	Hadoop    ClusterName = "hadoop"
)

// AllClusters lists the clusters in presentation order.
var AllClusters = []ClusterName{Database, Webserver, Hadoop}

func (c ClusterName) internal() workload.Cluster {
	switch c {
	case Webserver:
		return workload.Webserver
	case Hadoop:
		return workload.Hadoop
	default:
		return workload.Database
	}
}

// Time is a simulated instant or duration in integer picoseconds, the unit
// every result row reports. Its Duration method truncates it to whole
// nanoseconds.
type Time = sim.Time

func simT(d time.Duration) sim.Time { return sim.FromDuration(d) }

// guard converts a panic escaping an experiment into an error, so the
// public Run* entry points never panic on caller input: a configuration
// that passes Validate but trips a deeper invariant (an address-map or
// derivation panic) surfaces as a returned error instead of crashing the
// caller. Every Run*WithConfig and Run*Observed defers it over a named
// error return.
func guard(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if e, ok := r.(error); ok {
		*err = fmt.Errorf("netdimm: experiment failed: %w", e)
		return
	}
	*err = fmt.Errorf("netdimm: experiment failed: %v", r)
}

// encodeCSV renders one CSV record per result row under header. Each
// family's CSV encoder (Fig4CSV … CollSweepCSV) is built on it and sits
// next to its result type; the CLI's -csv output and the campaign cells
// both call that encoder, and the campaign schema reads its header from
// the encoder's zero-row output, so a family's columns are declared
// exactly once.
func encodeCSV[R any](header []string, rows []R, record func(R) []string) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = record(r)
	}
	return stats.CSV(header, out)
}

// ns renders a duration in whole nanoseconds, the unit of every *_ns column.
func ns(d time.Duration) string { return fmt.Sprint(d.Nanoseconds()) }

// fixed4 renders a ratio with the four decimals the CSV columns use.
func fixed4(x float64) string { return fmt.Sprintf("%.4f", x) }

// Fig4Result is one row of the Fig. 4 motivation experiment.
type Fig4Result = experiments.Fig4Row

var fig4Header = []string{"size", "dnic_ns", "dnic_zcpy_ns", "inic_ns", "inic_zcpy_ns",
	"pcie_share", "pcie_share_zcpy"}

// Fig4CSV renders Fig. 4 rows as plot-ready CSV, one record per size.
func Fig4CSV(rows []Fig4Result) string {
	return encodeCSV(fig4Header, rows, func(r Fig4Result) []string {
		return []string{fmt.Sprint(r.Size), ns(r.DNIC.Duration()), ns(r.DNICZcpy.Duration()),
			ns(r.INIC.Duration()), ns(r.INICZcpy.Duration()),
			fixed4(r.PCIeShare), fixed4(r.PCIeShareZcpy)}
	})
}

// RunFig4WithConfig regenerates Fig. 4 on the system described by cfg:
// one-way latency of the four baseline NIC configurations with the PCIe
// overhead share.
//
// parallelism fans the sweep's independent cells over worker goroutines:
// <= 0 uses all cores (runtime.GOMAXPROCS), 1 runs sequentially, N uses at
// most N workers. Results are identical for every setting. The same knob
// appears on every Run* sweep below.
func RunFig4WithConfig(cfg Config, sizes []int, parallelism int) (_ []Fig4Result, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = experiments.PaperSizes
	}
	return experiments.Fig4(cfg, sizes, parallelism), nil
}

// Fig5Result is one memory-pressure level of Fig. 5.
type Fig5Result = experiments.Fig5Row

// RunFig5WithConfig regenerates Fig. 5 on the system described by cfg
// (its DRAM timing, memory-controller config and link rate): iperf
// bandwidth under MLC-style memory pressure. A nil delay slice uses
// experiments.DefaultFig5Delays, from idle to maximum pressure.
func RunFig5WithConfig(cfg Config, delays []time.Duration, parallelism int) (_ []Fig5Result, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var ds []sim.Time
	for _, d := range delays {
		ds = append(ds, simT(d))
	}
	return experiments.Fig5(cfg, ds, parallelism), nil
}

// Fig7Result is one DMA memory request of the Fig. 7 locality study.
type Fig7Result = experiments.Fig7Point

// RunFig7WithConfig regenerates Fig. 7 on the system described by cfg
// (its link rate and PCIe DMA bandwidth): the per-cacheline DMA request
// trace of six received 1514B packets.
func RunFig7WithConfig(cfg Config) (_ []Fig7Result, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return experiments.Fig7(cfg), nil
}

// Fig11Result is one packet size's breakdown comparison; NewLatencyBreakdown
// converts each architecture's breakdown for rendering.
type Fig11Result = experiments.Fig11Row

var fig11Header = []string{"size", "arch", "txCopy_ns", "rxCopy_ns", "txDMA_ns", "rxDMA_ns",
	"wire_ns", "ioReg_ns", "txFlush_ns", "rxInvalidate_ns", "total_ns"}

// Fig11CSV renders Fig. 11 rows as plot-ready CSV: one breakdown record
// per (size, architecture), dNIC then iNIC then NetDIMM.
func Fig11CSV(rows []Fig11Result) string {
	var out [][]string
	for _, r := range rows {
		for _, a := range []struct {
			name string
			b    stats.Breakdown
		}{{"dNIC", r.DNIC}, {"iNIC", r.INIC}, {"NetDIMM", r.NetDIMM}} {
			b := NewLatencyBreakdown(a.b)
			out = append(out, []string{fmt.Sprint(r.Size), a.name,
				ns(b.TxCopy), ns(b.RxCopy), ns(b.TxDMA), ns(b.RxDMA), ns(b.Wire),
				ns(b.IOReg), ns(b.TxFlush), ns(b.RxInvalidate), ns(b.Total)})
		}
	}
	return stats.CSV(fig11Header, out)
}

// Fig12aResult is one (cluster, switch latency) cell of Fig. 12(a).
type Fig12aResult struct {
	Cluster       ClusterName
	SwitchLatency time.Duration
	DNICMean      time.Duration
	INICMean      time.Duration
	NetDIMMMean   time.Duration
	NormVsDNIC    float64
	NormVsINIC    float64
}

var fig12aHeader = []string{"cluster", "switch_ns", "dnic_mean_ns", "inic_mean_ns",
	"netdimm_mean_ns", "norm_dnic", "norm_inic"}

// Fig12aCSV renders Fig. 12(a) rows as plot-ready CSV, one record per
// (cluster, switch latency) cell.
func Fig12aCSV(rows []Fig12aResult) string {
	return encodeCSV(fig12aHeader, rows, func(r Fig12aResult) []string {
		return []string{string(r.Cluster), ns(r.SwitchLatency), ns(r.DNICMean), ns(r.INICMean),
			ns(r.NetDIMMMean), fixed4(r.NormVsDNIC), fixed4(r.NormVsINIC)}
	})
}

// RunFig12aWithConfig regenerates Fig. 12(a) on the system described by
// cfg: cluster trace replay across switch latencies. packets controls the
// trace length per cell (0 = experiments.DefaultPackets, 1000).
func RunFig12aWithConfig(cfg Config, packets int, seed uint64, parallelism int) (_ []Fig12aResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if packets <= 0 {
		packets = experiments.DefaultPackets
	}
	rows, err := experiments.Fig12a(cfg, packets, seed, parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]Fig12aResult, len(rows))
	for i, r := range rows {
		out[i] = Fig12aResult{
			Cluster:       ClusterName(r.Cluster.String()),
			SwitchLatency: r.SwitchLatency.Duration(),
			DNICMean:      r.DNICMean.Duration(),
			INICMean:      r.INICMean.Duration(),
			NetDIMMMean:   r.NetDIMMMean.Duration(),
			NormVsDNIC:    r.NormVsDNIC(),
			NormVsINIC:    r.NormVsINIC(),
		}
	}
	return out, nil
}

// Fig12bResult is one (cluster, function) cell of Fig. 12(b).
type Fig12bResult = experiments.Fig12bRow

// RunFig12bWithConfig regenerates Fig. 12(b) on the system described by
// cfg: co-running application memory latency under DPI and L3F, NetDIMM
// normalised to iNIC.
func RunFig12bWithConfig(cfg Config, parallelism int) (_ []Fig12bResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return experiments.Fig12b(cfg, parallelism), nil
}

// HeadlineResult carries the abstract's summary numbers as measured.
type HeadlineResult = experiments.Headline

// RunHeadlineWithConfig measures the paper's headline numbers on the
// system described by cfg; packets is the trace length per replay cell
// (0 = experiments.DefaultPackets, 1000).
func RunHeadlineWithConfig(cfg Config, packets int, parallelism int) (_ HeadlineResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return HeadlineResult{}, err
	}
	if packets <= 0 {
		packets = experiments.DefaultPackets
	}
	return experiments.RunHeadline(cfg, packets, parallelism)
}

// GenerateTrace produces a deterministic synthetic trace for a cluster:
// n events with the published size and locality distributions.
func GenerateTrace(cluster ClusterName, n int, seed uint64) []TraceEvent {
	gen := workload.NewGenerator(cluster.internal(), 0, seed)
	events := gen.Generate(n)
	out := make([]TraceEvent, len(events))
	for i, e := range events {
		out[i] = TraceEvent{
			At:       e.At.Duration(),
			Size:     e.Size,
			Locality: e.Locality.String(),
		}
	}
	return out
}

// TraceEvent is one packet arrival of a generated trace.
type TraceEvent struct {
	At       time.Duration
	Size     int
	Locality string
}
