package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"netdimm"
	"netdimm/internal/campaign"
	"netdimm/internal/experiments"
	"netdimm/internal/stats"
)

// axes are the parameters of one family run. The CLI fills them from its
// flags and a campaign cell from its grid row; each family reads the axes
// it sweeps, and a zero axis selects the family's default.
type axes struct {
	packets   int
	seed      uint64
	parallel  int
	switchLat time.Duration
	sizes     []int           // fig4, fig11 (nil = the paper's sizes)
	loss      []float64       // faultsweep loss rates
	loads     []float64       // loadsweep and racksweep offered loads
	racks     []int           // racksweep leaf counts
	outages   []time.Duration // failsweep spine-outage windows
	ranks     []int           // collsweep rank counts
	ops       []string        // collsweep operations
	hosts     int             // Load.Hosts override (loadsweep, racksweep, failsweep)
	cluster   string          // Load.Cluster override (loadsweep, racksweep, failsweep)
	payload   int             // Collective.PayloadBytes override (collsweep)
	file      string          // replay's trace file
}

// output is what one family run produces: the CLI prints the table (or the
// CSV under -csv), a campaign cell keeps the CSV.
type output struct {
	csv   string // plot-ready CSV; "" for a family without one
	table string // the human-readable table
	tails string // printed after the table or CSV under -metrics
	ob    *netdimm.Observation
	rows  int // expected CSV data rows; 0 when only the schema minimum applies
}

// family is one experiment the CLI and campaigns can run.
type family struct {
	name  string
	help  string
	inAll bool // `all` runs it
	// schema is the CSV contract a campaign cell of the family is checked
	// against; nil when a campaign grid cannot name the family.
	schema *campaign.Schema
	// observes: run returns an Observation, so -trace, -metrics and a grid
	// row's Trace and Metrics apply.
	observes bool
	// csv: run returns a CSV, so -csv applies.
	csv bool
	// ownPackets: -n reaches run only when given explicitly; otherwise run
	// gets 0 and the family applies its own per-cell default.
	ownPackets bool
	run        func(cfg netdimm.Config, a axes) (output, error)
}

// families is the single declaration of every experiment: usage, the CLI
// verbs, `all`, the campaign registry and campaign cells all iterate it.
var families = []family{
	{name: "table1", help: "system configuration (paper Table 1, or the scenario's)", inAll: true, run: table1},
	{name: "fig4", help: "one-way latency of dNIC/dNIC.zcpy/iNIC/iNIC.zcpy + PCIe share", inAll: true,
		schema: schemaOf(netdimm.Fig4CSV(nil), 1), csv: true, run: fig4},
	{name: "fig5", help: "iperf bandwidth under MLC memory pressure", inAll: true, csv: true, run: fig5},
	{name: "fig7", help: "NIC DMA access locality (six 1514B receptions)", inAll: true, csv: true, run: fig7},
	{name: "fig11", help: "one-way latency breakdown: dNIC / iNIC / NetDIMM", inAll: true,
		schema: schemaOf(netdimm.Fig11CSV(nil), 3), observes: true, csv: true, run: fig11},
	{name: "fig12a", help: "cluster trace replay across switch latencies", inAll: true,
		schema: schemaOf(netdimm.Fig12aCSV(nil), 3), csv: true, run: fig12a},
	{name: "fig12b", help: "co-running app memory latency under DPI and L3F", inAll: true, csv: true, run: fig12b},
	{name: "bandwidth", help: "sustained line-rate check (Sec. 5.2)", inAll: true, run: bandwidth},
	{name: "ablation", help: "design-choice ablations (nPrefetcher, nCache, FPM, allocCache)", inAll: true,
		schema: schemaOf(ablationCSV(netdimm.AblationReport{}), 4), csv: true, run: ablation},
	{name: "mixed", help: "DDR + NetDIMM coexistence on one channel (NVDIMM-P async, Sec. 2.2)", observes: true, run: mixed},
	{name: "replay", help: "replay a netdimm-trace file under all three architectures", run: replay},
	{name: "faultsweep", help: "one-way latency vs injected frame loss, with retransmit recovery",
		schema: schemaOf(netdimm.FaultSweepCSV(nil), 3), observes: true, csv: true, run: faultSweep},
	{name: "loadsweep", help: "rack-scale incast: latency vs offered load, with saturation knees",
		schema: schemaOf(netdimm.LoadSweepCSV(nil), 3), observes: true, csv: true, run: loadSweep},
	{name: "racksweep", help: "leaf/spine clos: latency vs load across rack counts, ECN on/off",
		schema: schemaOf(netdimm.RackSweepCSV(nil), 6), observes: true, csv: true, ownPackets: true, run: rackSweep},
	{name: "failsweep", help: "scheduled spine outage: ECMP failover, ARQ recovery time, tail inflation",
		schema: schemaOf(netdimm.FailSweepCSV(nil), 3), observes: true, csv: true, ownPackets: true, run: failSweep},
	{name: "collsweep", help: "collective completion: Ring AllReduce / tree Broadcast / Reduce-Scatter vs rank count",
		schema: schemaOf(netdimm.CollSweepCSV(nil), 3), observes: true, csv: true, run: collSweep},
	{name: "headline", help: "the abstract's summary numbers", inAll: true, run: headline},
}

// lookup returns the named family.
func lookup(name string) (family, bool) {
	for _, f := range families {
		if f.name == name {
			return f, true
		}
	}
	return family{}, false
}

func observes(f family) bool { return f.observes }
func hasCSV(f family) bool   { return f.csv }

// familyNames lists, in table order, the families that satisfy keep.
func familyNames(keep func(family) bool) string {
	var names []string
	for _, f := range families {
		if keep(f) {
			names = append(names, f.name)
		}
	}
	return strings.Join(names, ", ")
}

// schemaOf builds a campaign schema from the header line a family's CSV
// encoder writes for zero rows, so the columns are declared only by the
// encoder.
func schemaOf(emptyCSV string, minRows int) *campaign.Schema {
	return &campaign.Schema{Header: strings.Split(strings.TrimSuffix(emptyCSV, "\n"), ","), MinRows: minRows}
}

// lenOr returns n, or the family default when the axis was left empty.
func lenOr(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// withLoad applies the host-count and cluster overrides the fabric sweeps
// honour.
func withLoad(cfg netdimm.Config, a axes) netdimm.Config {
	if a.hosts != 0 {
		cfg.Load.Hosts = a.hosts
	}
	if a.cluster != "" {
		cfg.Load.Cluster = a.cluster
	}
	return cfg
}

func table1(cfg netdimm.Config, _ axes) (output, error) {
	return output{table: cfg.Table()}, nil
}

func fig4(cfg netdimm.Config, a axes) (output, error) {
	rows, err := netdimm.RunFig4WithConfig(cfg, a.sizes, a.switchLat, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintf(w, "Fig. 4 — one-way latency, baseline NICs (switch %v)\n", a.switchLat)
	fmt.Fprintln(w, "  size        dNIC   dNIC.zcpy        iNIC   iNIC.zcpy  pcie.overh   pcie.zcpy")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d  %10v  %10v  %10v  %10v  %9.1f%%  %9.1f%%\n",
			r.Size, r.DNIC, r.DNICZcpy, r.INIC, r.INICZcpy,
			r.PCIeShare*100, r.PCIeShareZcpy*100)
	}
	return output{csv: netdimm.Fig4CSV(rows), table: w.String(),
		rows: lenOr(len(a.sizes), len(experiments.PaperSizes))}, nil
}

func fig5(cfg netdimm.Config, a axes) (output, error) {
	rows, err := netdimm.RunFig5WithConfig(cfg, nil, a.parallel)
	if err != nil {
		return output{}, err
	}
	var out [][]string
	w := new(strings.Builder)
	fmt.Fprintln(w, "Fig. 5 — iperf bandwidth vs MLC memory pressure")
	fmt.Fprintln(w, "  inject delay        Gbps   mem read ns")
	for _, r := range rows {
		out = append(out, []string{fmt.Sprint(r.InjectDelay.Nanoseconds()),
			fmt.Sprintf("%.2f", r.BandwidthGbps), fmt.Sprintf("%.1f", r.MemReadNs)})
		delay := r.InjectDelay.String()
		if r.InjectDelay >= time.Second {
			delay = "none"
		}
		fmt.Fprintf(w, "%14s  %10.1f  %12.0f\n", delay, r.BandwidthGbps, r.MemReadNs)
	}
	return output{csv: stats.CSV([]string{"inject_delay_ns", "gbps", "mem_read_ns"}, out), table: w.String()}, nil
}

func fig7(cfg netdimm.Config, _ axes) (output, error) {
	pts, err := netdimm.RunFig7WithConfig(cfg)
	if err != nil {
		return output{}, err
	}
	var out [][]string
	w := new(strings.Builder)
	fmt.Fprintln(w, "Fig. 7 — DMA request trace, six 1514B receptions (rel line, rel ns, burst)")
	for i, p := range pts {
		out = append(out, []string{fmt.Sprint(p.RelCacheline), fmt.Sprint(p.RelTime.Nanoseconds()), fmt.Sprint(p.Burst)})
		fmt.Fprintf(w, "%4d %8.1f %d", p.RelCacheline, float64(p.RelTime.Nanoseconds()), p.Burst)
		if (i+1)%4 == 0 {
			fmt.Fprintln(w)
		} else {
			fmt.Fprint(w, "   |   ")
		}
	}
	fmt.Fprintln(w)
	return output{csv: stats.CSV([]string{"rel_cacheline", "rel_time_ns", "burst"}, out), table: w.String()}, nil
}

func fig11(cfg netdimm.Config, a axes) (output, error) {
	rows, ob, err := netdimm.RunFig11Observed(cfg, a.sizes, a.switchLat, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintf(w, "Fig. 11 — one-way latency breakdown (switch %v)\n", a.switchLat)
	for _, r := range rows {
		fmt.Fprintf(w, "size %dB:\n", r.Size)
		fmt.Fprintf(w, "  dNIC    %v\n", r.DNIC)
		fmt.Fprintf(w, "  iNIC    %v\n", r.INIC)
		fmt.Fprintf(w, "  NetDIMM %v\n", r.NetDIMM)
		fmt.Fprintf(w, "  reduction: %.1f%% vs dNIC, %.1f%% vs iNIC\n",
			r.ReductionVsDNIC*100, r.ReductionVsINIC*100)
	}
	return output{csv: netdimm.Fig11CSV(rows), table: w.String(), ob: ob,
		rows: 3 * lenOr(len(a.sizes), len(experiments.PaperSizes))}, nil
}

func fig12a(cfg netdimm.Config, a axes) (output, error) {
	rows, err := netdimm.RunFig12aWithConfig(cfg, a.packets, a.seed, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintf(w, "Fig. 12a — normalized per-packet latency, %d packets/cell\n", a.packets)
	fmt.Fprintln(w, "cluster       switch   dNIC mean     ND mean    norm(dNIC)    norm(iNIC)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s  %8v  %10v  %10v  %12.3f  %12.3f\n",
			r.Cluster, r.SwitchLatency, r.DNICMean, r.NetDIMMMean, r.NormVsDNIC, r.NormVsINIC)
	}
	return output{csv: netdimm.Fig12aCSV(rows), table: w.String(),
		rows: len(netdimm.AllClusters) * len(experiments.PaperSwitchLatencies)}, nil
}

func fig12b(cfg netdimm.Config, a axes) (output, error) {
	rows, err := netdimm.RunFig12bWithConfig(cfg, a.parallel)
	if err != nil {
		return output{}, err
	}
	var out [][]string
	w := new(strings.Builder)
	fmt.Fprintln(w, "Fig. 12b — co-running app memory latency (normalized to iNIC)")
	fmt.Fprintln(w, "cluster     nf       iNIC ns       ND ns      norm")
	for _, r := range rows {
		out = append(out, []string{string(r.Cluster), string(r.Function),
			fmt.Sprintf("%.2f", r.INICNs), fmt.Sprintf("%.2f", r.NetDIMMNs), fmt.Sprintf("%.4f", r.Norm)})
		fmt.Fprintf(w, "%-10s  %-4s  %10.1f  %10.1f  %8.3f\n",
			r.Cluster, r.Function, r.INICNs, r.NetDIMMNs, r.Norm)
	}
	return output{csv: stats.CSV([]string{"cluster", "nf", "inic_ns", "netdimm_ns", "norm"}, out), table: w.String()}, nil
}

func bandwidth(cfg netdimm.Config, a axes) (output, error) {
	rows, err := netdimm.RunBandwidthWithConfig(cfg, a.packets, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintf(w, "Bandwidth — sustained %dGbE line-rate check (Sec. 5.2)\n", cfg.NetworkGbps)
	fmt.Fprintln(w, "arch       offered   achieved   per-pkt RX   headroom  sustained")
	for _, r := range rows {
		head := "-"
		if r.ChannelHeadroom > 0 {
			head = fmt.Sprintf("%.0f%%", r.ChannelHeadroom*100)
		}
		fmt.Fprintf(w, "%-8s  %7.1fG  %8.1fG  %11v  %9s  %v\n",
			r.Arch, r.OfferedGbps, r.AchievedGbps, r.PerPacketRx, head, r.Sustained)
	}
	return output{table: w.String()}, nil
}

// ablationCSV renders an ablation report as CSV, one record per variant,
// section by section.
func ablationCSV(rep netdimm.AblationReport) string {
	ns := func(d time.Duration) string { return fmt.Sprint(d.Nanoseconds()) }
	fixed4 := func(x float64) string { return fmt.Sprintf("%.4f", x) }
	var out [][]string
	for _, r := range rep.Prefetch {
		out = append(out, []string{"prefetch", fmt.Sprintf("degree-%d", r.Degree), ns(r.MeanReadLat), fixed4(r.HitRate)})
	}
	for _, r := range rep.Clone {
		out = append(out, []string{"clone", r.Strategy, ns(r.PerClone), ""})
	}
	for _, r := range rep.Alloc {
		out = append(out, []string{"alloc", r.Strategy, ns(r.PerAlloc), fixed4(r.FPMRate)})
	}
	for _, r := range rep.HeaderCache {
		out = append(out, []string{"headercache", r.Strategy, ns(r.HeaderRead), fixed4(r.HitRate)})
	}
	return stats.CSV([]string{"section", "variant", "latency_ns", "rate"}, out)
}

func ablation(cfg netdimm.Config, a axes) (output, error) {
	rep, err := netdimm.RunAblationsWithConfig(cfg, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintln(w, "Ablations — what each NetDIMM design choice contributes")
	fmt.Fprintln(w, "\nnPrefetcher degree vs payload-read behaviour:")
	for _, r := range rep.Prefetch {
		fmt.Fprintf(w, "  degree %d: nCache hit rate %5.1f%%, mean read %v\n",
			r.Degree, r.HitRate*100, r.MeanReadLat)
	}
	fmt.Fprintln(w, "\nBuffer copy strategy (one MTU packet):")
	for _, r := range rep.Clone {
		fmt.Fprintf(w, "  %-38s %v\n", r.Strategy, r.PerClone)
	}
	fmt.Fprintln(w, "\nDMA-buffer allocation strategy:")
	for _, r := range rep.Alloc {
		fmt.Fprintf(w, "  %-38s %8v critical-path, FPM rate %5.1f%%\n",
			r.Strategy, r.PerAlloc, r.FPMRate*100)
	}
	fmt.Fprintln(w, "\nHeader caching (L3F-style access):")
	for _, r := range rep.HeaderCache {
		fmt.Fprintf(w, "  %-28s header read %v, hit rate %5.1f%%\n",
			r.Strategy, r.HeaderRead, r.HitRate*100)
	}
	return output{csv: ablationCSV(rep), table: w.String()}, nil
}

func mixed(cfg netdimm.Config, a axes) (output, error) {
	r, ob, err := netdimm.RunMixedChannelObserved(cfg, a.packets, a.seed)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintln(w, "Mixed channel — DDR + NetDIMM on one DDR5 channel (Sec. 2.2)")
	fmt.Fprintf(w, "  DDR reads:      %5d  mean %v\n", r.DDRReads, r.DDRMean)
	fmt.Fprintf(w, "  NetDIMM reads:  %5d  mean %v (asynchronous, non-deterministic)\n",
		r.NetDIMMReads, r.NetDIMMMean)
	fmt.Fprintf(w, "  out-of-order completions: %d, max outstanding request IDs: %d\n",
		r.OutOfOrder, r.MaxOutstandingIDs)
	return output{table: w.String(), ob: ob}, nil
}

func replay(cfg netdimm.Config, a axes) (output, error) {
	if a.file == "" {
		return output{}, fmt.Errorf("replay: usage: netdimm-sim replay FILE")
	}
	f, err := os.Open(a.file)
	if err != nil {
		return output{}, err
	}
	defer f.Close()
	cluster, rows, err := netdimm.ReplayTraceFileWithConfig(cfg, f, a.switchLat, a.seed, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintf(w, "Replay of %s (%s trace)\n", a.file, cluster)
	fmt.Fprintln(w, "arch       packets        mean         p50         p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s  %8d  %10v  %10v  %10v\n", r.Arch, r.Packets, r.Mean, r.P50, r.P99)
	}
	return output{table: w.String()}, nil
}

func faultSweep(cfg netdimm.Config, a axes) (output, error) {
	rows, tails, ob, err := netdimm.RunFaultSweepObserved(cfg, a.loss, a.packets, a.seed, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintln(w, "Fault sweep — one-way latency vs injected frame loss (with recovery)")
	fmt.Fprintln(w, "arch          loss        mean         p50         p99  delivered  failed  retrans")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s  %8g  %10v  %10v  %10v  %9d  %6d  %7d\n",
			r.Arch, r.LossRate, r.Mean, r.P50, r.P99, r.Delivered, r.Failed, r.Counters.Retransmits)
	}
	return output{csv: netdimm.FaultSweepCSV(rows), table: w.String(), tails: faultTails(tails), ob: ob,
		rows: 3 * lenOr(len(a.loss), 6)}, nil
}

// faultTails renders the per-architecture cross-rate latency tails of a
// fault sweep ("" for none).
func faultTails(tails []netdimm.FaultTailResult) string {
	if len(tails) == 0 {
		return ""
	}
	w := new(strings.Builder)
	fmt.Fprintln(w, "\nLatency tails across all loss rates")
	fmt.Fprintln(w, "arch       samples        mean         p50         p99")
	for _, t := range tails {
		fmt.Fprintf(w, "%-8s  %8d  %10v  %10v  %10v\n", t.Arch, t.Count, t.Mean, t.P50, t.P99)
	}
	return w.String()
}

func loadSweep(cfg netdimm.Config, a axes) (output, error) {
	rows, knees, ob, err := netdimm.RunLoadSweepObserved(withLoad(cfg, a), a.loads, a.packets, a.seed, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintln(w, "Load sweep — rack-scale incast: end-to-end latency vs offered load")
	fmt.Fprintln(w, "arch         load        mean         p50         p99       p99.9  delivered  dropped  rx depth")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s  %7g  %10v  %10v  %10v  %10v  %9d  %7d  %8d\n",
			r.Arch, r.OfferedLoad, r.Mean, r.P50, r.P99, r.P999, r.Delivered, r.Dropped, r.RxMaxDepth)
	}
	fmt.Fprintln(w, "\nSaturation knees (highest load with p99 within the knee factor of baseline)")
	for _, k := range knees {
		if !k.Saturated {
			fmt.Fprintf(w, "  %-8s no knee: curve never saturated within the swept grid\n", k.Arch)
			continue
		}
		fmt.Fprintf(w, "  %-8s saturates beyond %g of line rate\n", k.Arch, k.Knee)
	}
	return output{csv: netdimm.LoadSweepCSV(rows), table: w.String(), ob: ob, rows: 3 * len(a.loads)}, nil
}

// onOff renders an ECN setting.
func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

func rackSweep(cfg netdimm.Config, a axes) (output, error) {
	rows, knees, ob, err := netdimm.RunRackSweepObserved(withLoad(cfg, a), a.racks, a.loads, a.packets, a.seed, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintln(w, "Rack sweep — leaf/spine clos: end-to-end latency vs per-host load")
	fmt.Fprintln(w, "arch      racks   ecn    load        mean         p99       p99.9  delivered  dropped   marked   xrack")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s  %5d  %4s  %6g  %10v  %10v  %10v  %9d  %7d  %7d  %6d\n",
			r.Arch, r.Racks, onOff(r.ECN), r.OfferedLoad, r.Mean, r.P99, r.P999,
			r.Delivered, r.Dropped, r.Marked, r.CrossRack)
	}
	fmt.Fprintln(w, "\nSaturation knees per (arch, racks, ECN) curve")
	for _, k := range knees {
		if !k.Saturated {
			fmt.Fprintf(w, "  %-8s racks=%d ecn=%-3s no knee: curve never saturated within the swept grid\n",
				k.Arch, k.Racks, onOff(k.ECN))
			continue
		}
		fmt.Fprintf(w, "  %-8s racks=%d ecn=%-3s saturates beyond %g of line rate\n",
			k.Arch, k.Racks, onOff(k.ECN), k.Knee)
	}
	return output{csv: netdimm.RackSweepCSV(rows), table: w.String(), ob: ob,
		rows: 3 * 2 * len(a.racks) * len(a.loads)}, nil
}

func failSweep(cfg netdimm.Config, a axes) (output, error) {
	rows, ob, err := netdimm.RunFailSweepObserved(withLoad(cfg, a), a.outages, a.packets, a.seed, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintln(w, "Failure sweep — scheduled spine outage: failover, recovery, tail inflation")
	fmt.Fprintln(w, "arch       outage  delivered  dropped  rerouted   retrans    recov    reroute  mean recov  p99 before   p99 after  inflation")
	for _, r := range rows {
		reroute := "-"
		if r.TimeToReroute >= 0 {
			reroute = r.TimeToReroute.String()
		}
		inflation := "-"
		if r.TailInflation > 0 {
			inflation = fmt.Sprintf("%.2fx", r.TailInflation)
		}
		fmt.Fprintf(w, "%-8s  %7v  %9d  %7d  %8d  %8d  %7d  %9s  %10v  %10v  %10v  %9s\n",
			r.Arch, r.Outage, r.Delivered, r.Dropped, r.Rerouted, r.Retransmits, r.Recovered,
			reroute, r.MeanRecovery, r.P99Before, r.P99After, inflation)
	}
	return output{csv: netdimm.FailSweepCSV(rows), table: w.String(), ob: ob,
		rows: 3 * lenOr(len(a.outages), 4)}, nil
}

func collSweep(cfg netdimm.Config, a axes) (output, error) {
	if a.payload != 0 {
		cfg.Collective.PayloadBytes = a.payload
	}
	rows, ob, err := netdimm.RunCollSweepObserved(cfg, a.ranks, a.ops, a.seed, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintln(w, "Collective sweep — completion time vs rank count (every cell verified against a sequential reference)")
	fmt.Fprintln(w, "arch      op             ranks  steps    completion    step skew  wire bytes   marked    util")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s  %-13s  %5d  %5d  %12v  %11v  %10d  %7d  %5.1f%%\n",
			r.Arch, r.Op, r.Ranks, r.Steps, r.Completion, r.StepSkew,
			r.BytesOnWire, r.Marked, r.LinkUtilization*100)
	}
	return output{csv: netdimm.CollSweepCSV(rows), table: w.String(), ob: ob,
		rows: 3 * len(a.ranks) * len(a.ops)}, nil
}

func headline(cfg netdimm.Config, a axes) (output, error) {
	h, err := netdimm.RunHeadlineWithConfig(cfg, a.packets, a.parallel)
	if err != nil {
		return output{}, err
	}
	w := new(strings.Builder)
	fmt.Fprintln(w, "Headline numbers (paper values in parentheses)")
	fmt.Fprintf(w, "  avg one-way latency reduction vs dNIC: %.1f%% (49.9%%)\n", h.AvgReductionVsDNIC*100)
	fmt.Fprintf(w, "  avg one-way latency reduction vs iNIC: %.1f%% (25.9%%)\n", h.AvgReductionVsINIC*100)
	var keys []time.Duration
	for k := range h.TraceReductionBySwitch {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	paper := map[time.Duration]string{
		25 * time.Nanosecond:  "40.6%",
		50 * time.Nanosecond:  "36.0%",
		100 * time.Nanosecond: "33.1%",
		200 * time.Nanosecond: "25.3%",
	}
	for _, k := range keys {
		fmt.Fprintf(w, "  trace replay reduction @%v switch: %.1f%% (%s)\n",
			k, h.TraceReductionBySwitch[k]*100, paper[k])
	}
	fmt.Fprintf(w, "  DPI worst-case app-latency increase vs iNIC: +%.1f%% (+15.4%%)\n", h.DPIWorst*100)
	fmt.Fprintf(w, "  L3F best-case app-latency reduction vs iNIC: -%.1f%% (-30.9%%)\n", h.L3FBest*100)
	return output{table: w.String()}, nil
}
