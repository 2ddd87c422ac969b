package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/experiments"
	"netdimm/internal/netfunc"
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

// NFKind identifies a network function for the interference study.
type NFKind string

// The two functions bracketing the packet-processing spectrum.
const (
	L3Forwarding NFKind = "L3F"
	DeepInspect  NFKind = "DPI"
)

func (k NFKind) internal() netfunc.Kind {
	if k == DeepInspect {
		return netfunc.DPI
	}
	return netfunc.L3F
}

func simT(d time.Duration) sim.Time { return sim.FromDuration(d) }

// guard converts a panic escaping an experiment into an error, so the
// public WithConfig entry points never panic on caller input: a
// configuration that passes Validate but trips a deeper invariant (an
// address-map or derivation panic) surfaces as a returned error instead of
// crashing the caller. Every Run*WithConfig defers it over a named error
// return.
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
type Fig4Result struct {
	Size          int
	DNIC          time.Duration
	DNICZcpy      time.Duration
	INIC          time.Duration
	INICZcpy      time.Duration
	PCIeShare     float64
	PCIeShareZcpy float64
}

var fig4Header = []string{"size", "dnic_ns", "dnic_zcpy_ns", "inic_ns", "inic_zcpy_ns",
	"pcie_share", "pcie_share_zcpy"}

// Fig4CSV renders Fig. 4 rows as plot-ready CSV, one record per size.
func Fig4CSV(rows []Fig4Result) string {
	return encodeCSV(fig4Header, rows, func(r Fig4Result) []string {
		return []string{fmt.Sprint(r.Size), ns(r.DNIC), ns(r.DNICZcpy), ns(r.INIC), ns(r.INICZcpy),
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
func RunFig4WithConfig(cfg Config, sizes []int, switchLatency time.Duration, parallelism int) (_ []Fig4Result, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = experiments.PaperSizes
	}
	rows := experiments.Fig4(cfg.spec(), sizes, simT(switchLatency), parallelism)
	out := make([]Fig4Result, len(rows))
	for i, r := range rows {
		out[i] = Fig4Result{
			Size:          r.Size,
			DNIC:          toDuration(r.DNIC),
			DNICZcpy:      toDuration(r.DNICZcpy),
			INIC:          toDuration(r.INIC),
			INICZcpy:      toDuration(r.INICZcpy),
			PCIeShare:     r.PCIeShare,
			PCIeShareZcpy: r.PCIeShareZcpy,
		}
	}
	return out, nil
}

// Fig5Result is one memory-pressure level of Fig. 5.
type Fig5Result struct {
	InjectDelay   time.Duration
	BandwidthGbps float64
	MemReadNs     float64
}

// RunFig5WithConfig regenerates Fig. 5 on the system described by cfg
// (its DRAM timing, memory-controller config and link rate): iperf
// bandwidth under MLC-style memory pressure. A nil delay slice uses a
// representative sweep from idle to maximum pressure.
func RunFig5WithConfig(cfg Config, delays []time.Duration, parallelism int) (_ []Fig5Result, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var ds []sim.Time
	if len(delays) == 0 {
		ds = []sim.Time{
			sim.Second, // no interference
			2 * sim.Microsecond, 500 * sim.Nanosecond, 100 * sim.Nanosecond,
			50 * sim.Nanosecond, 20 * sim.Nanosecond, 10 * sim.Nanosecond, 5 * sim.Nanosecond,
		}
	} else {
		for _, d := range delays {
			ds = append(ds, simT(d))
		}
	}
	rows := experiments.Fig5(cfg.spec(), ds, experiments.DefaultFig5Config(), parallelism)
	out := make([]Fig5Result, len(rows))
	for i, r := range rows {
		out[i] = Fig5Result{
			InjectDelay:   toDuration(r.InjectDelay),
			BandwidthGbps: r.BandwidthGbps,
			MemReadNs:     r.MemReadNs,
		}
	}
	return out, nil
}

// Fig7Result is one DMA memory request of the Fig. 7 locality study.
type Fig7Result struct {
	RelCacheline int
	RelTime      time.Duration
	Burst        int
}

// RunFig7WithConfig regenerates Fig. 7 on the system described by cfg
// (its link rate and PCIe DMA bandwidth): the per-cacheline DMA request
// trace of six received 1514B packets.
func RunFig7WithConfig(cfg Config) (_ []Fig7Result, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pts := experiments.Fig7(cfg.spec())
	out := make([]Fig7Result, len(pts))
	for i, p := range pts {
		out[i] = Fig7Result{RelCacheline: p.RelLine, RelTime: toDuration(p.RelTime), Burst: p.Burst}
	}
	return out, nil
}

// Fig11Result is one packet size's breakdown comparison.
type Fig11Result struct {
	Size            int
	DNIC            LatencyBreakdown
	INIC            LatencyBreakdown
	NetDIMM         LatencyBreakdown
	ReductionVsDNIC float64
	ReductionVsINIC float64
}

var fig11Header = []string{"size", "arch", "txCopy_ns", "rxCopy_ns", "txDMA_ns", "rxDMA_ns",
	"wire_ns", "ioReg_ns", "txFlush_ns", "rxInvalidate_ns", "total_ns"}

// Fig11CSV renders Fig. 11 rows as plot-ready CSV: one breakdown record
// per (size, architecture), dNIC then iNIC then NetDIMM.
func Fig11CSV(rows []Fig11Result) string {
	var out [][]string
	for _, r := range rows {
		for _, a := range []struct {
			name string
			b    LatencyBreakdown
		}{{"dNIC", r.DNIC}, {"iNIC", r.INIC}, {"NetDIMM", r.NetDIMM}} {
			b := a.b
			out = append(out, []string{fmt.Sprint(r.Size), a.name,
				ns(b.TxCopy), ns(b.RxCopy), ns(b.TxDMA), ns(b.RxDMA), ns(b.Wire),
				ns(b.IOReg), ns(b.TxFlush), ns(b.RxInvalidate), ns(b.Total)})
		}
	}
	return stats.CSV(fig11Header, out)
}

// RunFig11WithConfig regenerates Fig. 11 on the system described by cfg:
// the one-way latency breakdown of dNIC, iNIC and NetDIMM across packet
// sizes. It is RunFig11Observed without the observation.
func RunFig11WithConfig(cfg Config, sizes []int, switchLatency time.Duration, parallelism int) ([]Fig11Result, error) {
	rows, _, err := RunFig11Observed(cfg, sizes, switchLatency, parallelism)
	return rows, err
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
// trace length per cell (0 = 1000).
func RunFig12aWithConfig(cfg Config, packets int, seed uint64, parallelism int) (_ []Fig12aResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if packets <= 0 {
		packets = 1000
	}
	rows, err := experiments.Fig12a(cfg.spec(), workload.Clusters, experiments.PaperSwitchLatencies, packets, seed, parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]Fig12aResult, len(rows))
	for i, r := range rows {
		out[i] = Fig12aResult{
			Cluster:       ClusterName(r.Cluster.String()),
			SwitchLatency: toDuration(r.SwitchLatency),
			DNICMean:      toDuration(r.DNICMean),
			INICMean:      toDuration(r.INICMean),
			NetDIMMMean:   toDuration(r.NetDIMMMean),
			NormVsDNIC:    r.NormVsDNIC(),
			NormVsINIC:    r.NormVsINIC(),
		}
	}
	return out, nil
}

// Fig12bResult is one (cluster, function) cell of Fig. 12(b).
type Fig12bResult struct {
	Cluster   ClusterName
	Function  NFKind
	INICNs    float64
	NetDIMMNs float64
	Norm      float64
}

// RunFig12bWithConfig regenerates Fig. 12(b) on the system described by
// cfg: co-running application memory latency under DPI and L3F, NetDIMM
// normalised to iNIC.
func RunFig12bWithConfig(cfg Config, parallelism int) (_ []Fig12bResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rows := experiments.Fig12b(cfg.spec(), workload.Clusters,
		[]netfunc.Kind{netfunc.DPI, netfunc.L3F}, experiments.DefaultFig12bConfig(), parallelism)
	out := make([]Fig12bResult, len(rows))
	for i, r := range rows {
		out[i] = Fig12bResult{
			Cluster:   ClusterName(r.Cluster.String()),
			Function:  NFKind(r.Kind.String()),
			INICNs:    r.INICAppNs,
			NetDIMMNs: r.NetDIMMNs,
			Norm:      r.Norm(),
		}
	}
	return out, nil
}

// HeadlineResult carries the abstract's summary numbers as measured.
type HeadlineResult struct {
	AvgReductionVsDNIC     float64
	AvgReductionVsINIC     float64
	TraceReductionBySwitch map[time.Duration]float64
	DPIWorst               float64
	L3FBest                float64
}

// RunHeadlineWithConfig measures the paper's headline numbers on the
// system described by cfg.
func RunHeadlineWithConfig(cfg Config, packets int, parallelism int) (_ HeadlineResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return HeadlineResult{}, err
	}
	if packets <= 0 {
		packets = 500
	}
	h, err := experiments.RunHeadline(cfg.spec(), packets, parallelism)
	if err != nil {
		return HeadlineResult{}, err
	}
	out := HeadlineResult{
		AvgReductionVsDNIC:     h.AvgReductionVsDNIC,
		AvgReductionVsINIC:     h.AvgReductionVsINIC,
		TraceReductionBySwitch: make(map[time.Duration]float64, len(h.TraceReductionBySwitch)),
		DPIWorst:               h.DPIWorst,
		L3FBest:                h.L3FBest,
	}
	for k, v := range h.TraceReductionBySwitch {
		out.TraceReductionBySwitch[toDuration(k)] = v
	}
	return out, nil
}

// GenerateTrace produces a deterministic synthetic trace for a cluster:
// n events with the published size and locality distributions.
func GenerateTrace(cluster ClusterName, n int, seed uint64) []TraceEvent {
	gen := workload.NewGenerator(cluster.internal(), 0, seed)
	events := gen.Generate(n)
	out := make([]TraceEvent, len(events))
	for i, e := range events {
		out[i] = TraceEvent{
			At:       toDuration(e.At),
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
