// Command netdimm-sim runs the paper's experiments and prints their
// tables/series.
//
// Usage:
//
//	netdimm-sim [flags] <experiment>
//
// Experiments: table1, fig4, fig5, fig7, fig11, fig12a, fig12b, faultsweep,
// loadsweep, racksweep, failsweep, collsweep, headline, all. The -scenario
// flag selects the simulated system: a named preset (table1, ddr5,
// pcie-gen3, multi-netdimm-4, lossy-1pct) or a JSON config file.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"netdimm"
	"netdimm/internal/stats"
)

var (
	packets    = flag.Int("n", 1000, "packets per cell (fig12a, headline, bandwidth, mixed, faultsweep, loadsweep; racksweep and failsweep only when set, else their own defaults)")
	switchLat  = flag.Duration("switch", 100*time.Nanosecond, "switch port-to-port latency (fig4, fig11, replay)")
	seed       = flag.Uint64("seed", 3, "trace generator seed")
	asCSV      = flag.Bool("csv", false, "emit plot-ready CSV instead of tables (fig4, fig5, fig7, fig11, fig12a, fig12b, faultsweep, loadsweep, racksweep, failsweep, collsweep)")
	parallel   = flag.Int("parallel", 0, "worker goroutines per sweep: 0 = all cores, 1 = sequential, N = at most N")
	scenario   = flag.String("scenario", "", "system to simulate: a preset name or a JSON config file (default table1)")
	lossRates  = flag.String("loss", "", "comma-separated frame-loss rates for faultsweep (default 0,0.001,0.01,0.05,0.1,0.2)")
	loadRates  = flag.String("rate", "", "comma-separated offered loads (fractions of line rate) for loadsweep and racksweep (default a grid bracketing each knee)")
	hosts      = flag.Int("hosts", 0, "sender hosts for loadsweep (0 = scenario value or 8), racksweep (or 256) and failsweep (or 32)")
	rackList   = flag.String("racks", "", "comma-separated rack (leaf) counts for racksweep (default 2,4,8; a scenario Fabric.Leaves pins one)")
	outageList = flag.String("outage", "", "comma-separated spine-outage durations for failsweep, Go duration syntax (default 0,5µs,20µs,60µs; 0 is the baseline)")
	cluster    = flag.String("cluster", "", "traffic distribution for loadsweep, racksweep and failsweep: database, webserver or hadoop (default scenario value or database)")
	traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file of the run (fig11, faultsweep, loadsweep, racksweep, failsweep, collsweep, mixed); open in ui.perfetto.dev")
	metrics    = flag.Bool("metrics", false, "collect and print the metrics registry after the experiment output (fig11, faultsweep, loadsweep, racksweep, failsweep, collsweep, mixed)")
	rankList   = flag.String("ranks", "", "comma-separated rank counts for collsweep (default 4,8,16,32,64,128; a scenario Collective.Ranks pins one)")
	opsList    = flag.String("ops", "", "comma-separated collective ops for collsweep: allreduce, broadcast, reducescatter (default all three; a scenario Collective.Op pins one)")
	payload    = flag.Int("payload", 0, "per-rank vector bytes for collsweep (0 = scenario value or 64KiB)")
)

// flagWasSet reports whether the named flag was given explicitly on the
// command line (flag.Visit walks only the flags that were set).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// explicitPackets returns the -n value only when the flag was given
// explicitly, and 0 otherwise. The -n default of 1000 suits single-switch
// cells; the clos-scale sweeps split it across hundreds of hosts, so from 0
// each sweep applies its own per-cell default instead.
func explicitPackets() int {
	if flagWasSet("n") {
		return *packets
	}
	return 0
}

// obsConfig arms cfg.Obs from the -trace / -metrics flags; with neither
// flag set the configuration is returned unchanged and runs stay
// uninstrumented (byte-identical to the pinned goldens).
func obsConfig(cfg netdimm.Config) netdimm.Config {
	cfg.Obs.Trace = cfg.Obs.Trace || *traceOut != ""
	cfg.Obs.Metrics = cfg.Obs.Metrics || *metrics
	return cfg
}

// emitObservation writes the -trace file and prints the metrics registry
// (as CSV under -csv) for an observed run; a nil observation only writes
// the empty-but-valid trace file when one was requested.
func emitObservation(ob *netdimm.Observation) error {
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := ob.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "netdimm-sim: wrote trace to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
	if *metrics && ob.HasMetrics() {
		fmt.Println()
		if *asCSV {
			fmt.Print(ob.MetricsCSV())
		} else {
			fmt.Println("Metrics registry")
			fmt.Print(ob.MetricsTable())
		}
	}
	return nil
}

// emitAfter is emitObservation for a runner to defer, so the metrics print
// after its table: the emit error becomes the runner's result unless the
// runner already failed.
func emitAfter(ob *netdimm.Observation, err *error) {
	if e := emitObservation(ob); *err == nil {
		*err = e
	}
}

// printFaultTails prints the per-architecture cross-rate latency tails of
// a fault sweep. It is part of the -metrics rendering so the default
// faultsweep output stays byte-identical.
func printFaultTails(tails []netdimm.FaultTailResult) {
	if !*metrics || len(tails) == 0 {
		return
	}
	fmt.Println("\nLatency tails across all loss rates")
	fmt.Printf("%-8s  %8s  %10s  %10s  %10s\n", "arch", "samples", "mean", "p50", "p99")
	for _, t := range tails {
		fmt.Printf("%-8s  %8d  %10v  %10v  %10v\n", t.Arch, t.Count, t.Mean, t.P50, t.P99)
	}
}

// command is one experiment the CLI can run. Every runner receives the
// scenario configuration; `all` replays the inAll commands in order.
type command struct {
	name  string
	help  string
	inAll bool
	run   func(cfg netdimm.Config) error
}

// commands is the single dispatch table: usage, dispatch and `all` iterate
// over it, so an experiment is declared exactly once.
var commands = []command{
	{"table1", "system configuration (paper Table 1, or the scenario's)", true, runTable},
	{"fig4", "one-way latency of dNIC/dNIC.zcpy/iNIC/iNIC.zcpy + PCIe share", true, runFig4},
	{"fig5", "iperf bandwidth under MLC memory pressure", true, runFig5},
	{"fig7", "NIC DMA access locality (six 1514B receptions)", true, runFig7},
	{"fig11", "one-way latency breakdown: dNIC / iNIC / NetDIMM", true, runFig11},
	{"fig12a", "cluster trace replay across switch latencies", true, runFig12a},
	{"fig12b", "co-running app memory latency under DPI and L3F", true, runFig12b},
	{"bandwidth", "sustained line-rate check (Sec. 5.2)", true, runBandwidth},
	{"ablation", "design-choice ablations (nPrefetcher, nCache, FPM, allocCache)", true, runAblation},
	{"mixed", "DDR + NetDIMM coexistence on one channel (NVDIMM-P async, Sec. 2.2)", false, runMixed},
	{"replay", "replay a netdimm-trace file under all three architectures", false, runReplayArg},
	{"faultsweep", "one-way latency vs injected frame loss, with retransmit recovery", false, runFaultSweep},
	{"loadsweep", "rack-scale incast: latency vs offered load, with saturation knees", false, runLoadSweep},
	{"racksweep", "leaf/spine clos: latency vs load across rack counts, ECN on/off", false, runRackSweep},
	{"failsweep", "scheduled spine outage: ECMP failover, ARQ recovery time, tail inflation", false, runFailSweep},
	{"collsweep", "collective completion: Ring AllReduce / tree Broadcast / Reduce-Scatter vs rank count", false, runCollSweep},
	{"headline", "the abstract's summary numbers", true, runHeadline},
	{"campaign", "run a grid of experiments from -grid FILE into a timestamped output dir", false, runCampaign},
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	exp := flag.Arg(0)
	rest := flag.Args()[1:]
	if exp == "campaign" {
		// campaign takes its flags after the verb (`campaign -grid FILE`),
		// so re-parse the remainder; it has no positional arguments.
		flag.CommandLine.Parse(rest)
		rest = flag.Args()
		if len(rest) > 0 {
			fmt.Fprintf(os.Stderr, "netdimm-sim: campaign: unexpected argument %q\n", rest[0])
			usage()
			os.Exit(2)
		}
	}
	if len(rest) > 1 {
		usage()
		os.Exit(2)
	}
	cfg, err := netdimm.LoadScenario(*scenario)
	if err == nil {
		err = run(cfg, exp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netdimm-sim: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: netdimm-sim [flags] <experiment>\n\nexperiments:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.help)
	}
	fmt.Fprintf(os.Stderr, "  %-9s %s\n", "all", "every experiment above that needs no extra argument")
	fmt.Fprintf(os.Stderr, "\nscenarios (for -scenario; or pass a JSON config file):\n  %v\n\nflags:\n",
		netdimm.Scenarios())
	flag.PrintDefaults()
}

func run(cfg netdimm.Config, exp string) error {
	if exp == "all" {
		first := true
		for _, c := range commands {
			if !c.inAll {
				continue
			}
			if !first {
				fmt.Println()
			}
			first = false
			if err := c.run(cfg); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range commands {
		if c.name == exp {
			return c.run(cfg)
		}
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

func runTable(cfg netdimm.Config) error {
	fmt.Print(cfg.Table())
	return nil
}

func runFig4(cfg netdimm.Config) error {
	rows, err := netdimm.RunFig4WithConfig(cfg, nil, *switchLat, *parallel)
	if err != nil {
		return err
	}
	if *asCSV {
		fmt.Print(netdimm.Fig4CSV(rows))
		return nil
	}
	fmt.Printf("Fig. 4 — one-way latency, baseline NICs (switch %v)\n", *switchLat)
	fmt.Printf("%6s  %10s  %10s  %10s  %10s  %10s  %10s\n",
		"size", "dNIC", "dNIC.zcpy", "iNIC", "iNIC.zcpy", "pcie.overh", "pcie.zcpy")
	for _, r := range rows {
		fmt.Printf("%6d  %10v  %10v  %10v  %10v  %9.1f%%  %9.1f%%\n",
			r.Size, r.DNIC, r.DNICZcpy, r.INIC, r.INICZcpy,
			r.PCIeShare*100, r.PCIeShareZcpy*100)
	}
	return nil
}

func runFig5(cfg netdimm.Config) error {
	rows, err := netdimm.RunFig5WithConfig(cfg, nil, *parallel)
	if err != nil {
		return err
	}
	if *asCSV {
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{fmt.Sprint(r.InjectDelay.Nanoseconds()),
				fmt.Sprintf("%.2f", r.BandwidthGbps), fmt.Sprintf("%.1f", r.MemReadNs)})
		}
		fmt.Print(stats.CSV([]string{"inject_delay_ns", "gbps", "mem_read_ns"}, out))
		return nil
	}
	fmt.Println("Fig. 5 — iperf bandwidth vs MLC memory pressure")
	fmt.Printf("%14s  %10s  %12s\n", "inject delay", "Gbps", "mem read ns")
	for _, r := range rows {
		delay := r.InjectDelay.String()
		if r.InjectDelay >= time.Second {
			delay = "none"
		}
		fmt.Printf("%14s  %10.1f  %12.0f\n", delay, r.BandwidthGbps, r.MemReadNs)
	}
	return nil
}

func runFig7(cfg netdimm.Config) error {
	pts, err := netdimm.RunFig7WithConfig(cfg)
	if err != nil {
		return err
	}
	if *asCSV {
		var out [][]string
		for _, p := range pts {
			out = append(out, []string{fmt.Sprint(p.RelCacheline), fmt.Sprint(p.RelTime.Nanoseconds()), fmt.Sprint(p.Burst)})
		}
		fmt.Print(stats.CSV([]string{"rel_cacheline", "rel_time_ns", "burst"}, out))
		return nil
	}
	fmt.Println("Fig. 7 — DMA request trace, six 1514B receptions (rel line, rel ns, burst)")
	for i, p := range pts {
		fmt.Printf("%4d %8.1f %d", p.RelCacheline, float64(p.RelTime.Nanoseconds()), p.Burst)
		if (i+1)%4 == 0 {
			fmt.Println()
		} else {
			fmt.Print("   |   ")
		}
	}
	fmt.Println()
	return nil
}

func runFig11(cfg netdimm.Config) (err error) {
	rows, ob, err := netdimm.RunFig11Observed(obsConfig(cfg), nil, *switchLat, *parallel)
	if err != nil {
		return err
	}
	defer emitAfter(ob, &err)
	if *asCSV {
		fmt.Print(netdimm.Fig11CSV(rows))
		return nil
	}
	fmt.Printf("Fig. 11 — one-way latency breakdown (switch %v)\n", *switchLat)
	for _, r := range rows {
		fmt.Printf("size %dB:\n", r.Size)
		fmt.Printf("  dNIC    %v\n", r.DNIC)
		fmt.Printf("  iNIC    %v\n", r.INIC)
		fmt.Printf("  NetDIMM %v\n", r.NetDIMM)
		fmt.Printf("  reduction: %.1f%% vs dNIC, %.1f%% vs iNIC\n",
			r.ReductionVsDNIC*100, r.ReductionVsINIC*100)
	}
	return nil
}

func runFig12a(cfg netdimm.Config) error {
	rows, err := netdimm.RunFig12aWithConfig(cfg, *packets, *seed, *parallel)
	if err != nil {
		return err
	}
	if *asCSV {
		fmt.Print(netdimm.Fig12aCSV(rows))
		return nil
	}
	fmt.Printf("Fig. 12a — normalized per-packet latency, %d packets/cell\n", *packets)
	fmt.Printf("%-10s  %8s  %10s  %10s  %12s  %12s\n",
		"cluster", "switch", "dNIC mean", "ND mean", "norm(dNIC)", "norm(iNIC)")
	for _, r := range rows {
		fmt.Printf("%-10s  %8v  %10v  %10v  %12.3f  %12.3f\n",
			r.Cluster, r.SwitchLatency, r.DNICMean, r.NetDIMMMean, r.NormVsDNIC, r.NormVsINIC)
	}
	return nil
}

func runFig12b(cfg netdimm.Config) error {
	rows, err := netdimm.RunFig12bWithConfig(cfg, *parallel)
	if err != nil {
		return err
	}
	if *asCSV {
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{string(r.Cluster), string(r.Function),
				fmt.Sprintf("%.2f", r.INICNs), fmt.Sprintf("%.2f", r.NetDIMMNs), fmt.Sprintf("%.4f", r.Norm)})
		}
		fmt.Print(stats.CSV([]string{"cluster", "nf", "inic_ns", "netdimm_ns", "norm"}, out))
		return nil
	}
	fmt.Println("Fig. 12b — co-running app memory latency (normalized to iNIC)")
	fmt.Printf("%-10s  %-4s  %10s  %10s  %8s\n", "cluster", "nf", "iNIC ns", "ND ns", "norm")
	for _, r := range rows {
		fmt.Printf("%-10s  %-4s  %10.1f  %10.1f  %8.3f\n",
			r.Cluster, r.Function, r.INICNs, r.NetDIMMNs, r.Norm)
	}
	return nil
}

func runBandwidth(cfg netdimm.Config) error {
	rows, err := netdimm.RunBandwidthWithConfig(cfg, *packets, *parallel)
	if err != nil {
		return err
	}
	fmt.Printf("Bandwidth — sustained %dGbE line-rate check (Sec. 5.2)\n", cfg.NetworkGbps)
	fmt.Printf("%-8s  %8s  %9s  %11s  %9s  %s\n",
		"arch", "offered", "achieved", "per-pkt RX", "headroom", "sustained")
	for _, r := range rows {
		head := "-"
		if r.ChannelHeadroom > 0 {
			head = fmt.Sprintf("%.0f%%", r.ChannelHeadroom*100)
		}
		fmt.Printf("%-8s  %7.1fG  %8.1fG  %11v  %9s  %v\n",
			r.Arch, r.OfferedGbps, r.AchievedGbps, r.PerPacketRx, head, r.Sustained)
	}
	return nil
}

func runAblation(cfg netdimm.Config) error {
	rep, err := netdimm.RunAblationsWithConfig(cfg, *parallel)
	if err != nil {
		return err
	}
	fmt.Println("Ablations — what each NetDIMM design choice contributes")
	fmt.Println("\nnPrefetcher degree vs payload-read behaviour:")
	for _, r := range rep.Prefetch {
		fmt.Printf("  degree %d: nCache hit rate %5.1f%%, mean read %v\n",
			r.Degree, r.HitRate*100, r.MeanReadLat)
	}
	fmt.Println("\nBuffer copy strategy (one MTU packet):")
	for _, r := range rep.Clone {
		fmt.Printf("  %-38s %v\n", r.Strategy, r.PerClone)
	}
	fmt.Println("\nDMA-buffer allocation strategy:")
	for _, r := range rep.Alloc {
		fmt.Printf("  %-38s %8v critical-path, FPM rate %5.1f%%\n",
			r.Strategy, r.PerAlloc, r.FPMRate*100)
	}
	fmt.Println("\nHeader caching (L3F-style access):")
	for _, r := range rep.HeaderCache {
		fmt.Printf("  %-28s header read %v, hit rate %5.1f%%\n",
			r.Strategy, r.HeaderRead, r.HitRate*100)
	}
	return nil
}

func runMixed(cfg netdimm.Config) (err error) {
	r, ob, err := netdimm.RunMixedChannelObserved(obsConfig(cfg), *packets, *seed)
	if err != nil {
		return err
	}
	defer emitAfter(ob, &err)
	fmt.Println("Mixed channel — DDR + NetDIMM on one DDR5 channel (Sec. 2.2)")
	fmt.Printf("  DDR reads:      %5d  mean %v\n", r.DDRReads, r.DDRMean)
	fmt.Printf("  NetDIMM reads:  %5d  mean %v (asynchronous, non-deterministic)\n",
		r.NetDIMMReads, r.NetDIMMMean)
	fmt.Printf("  out-of-order completions: %d, max outstanding request IDs: %d\n",
		r.OutOfOrder, r.MaxOutstandingIDs)
	return nil
}

func runReplayArg(cfg netdimm.Config) error {
	if flag.NArg() != 2 {
		return fmt.Errorf("replay: usage: netdimm-sim replay FILE")
	}
	path := flag.Arg(1)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cluster, rows, err := netdimm.ReplayTraceFileWithConfig(cfg, f, *switchLat, *seed, *parallel)
	if err != nil {
		return err
	}
	fmt.Printf("Replay of %s (%s trace)\n", path, cluster)
	fmt.Printf("%-8s  %8s  %10s  %10s  %10s\n", "arch", "packets", "mean", "p50", "p99")
	for _, r := range rows {
		fmt.Printf("%-8s  %8d  %10v  %10v  %10v\n", r.Arch, r.Packets, r.Mean, r.P50, r.P99)
	}
	return nil
}

func runFaultSweep(cfg netdimm.Config) (err error) {
	rates, err := parseFloats("-loss", *lossRates)
	if err != nil {
		return err
	}
	rows, tails, ob, err := netdimm.RunFaultSweepObserved(obsConfig(cfg), rates, *packets, *seed, *parallel)
	if err != nil {
		return err
	}
	defer emitAfter(ob, &err)
	defer printFaultTails(tails)
	if *asCSV {
		fmt.Print(netdimm.FaultSweepCSV(rows))
		return nil
	}
	fmt.Println("Fault sweep — one-way latency vs injected frame loss (with recovery)")
	fmt.Printf("%-8s  %8s  %10s  %10s  %10s  %9s  %6s  %7s\n",
		"arch", "loss", "mean", "p50", "p99", "delivered", "failed", "retrans")
	for _, r := range rows {
		fmt.Printf("%-8s  %8g  %10v  %10v  %10v  %9d  %6d  %7d\n",
			r.Arch, r.LossRate, r.Mean, r.P50, r.P99, r.Delivered, r.Failed, r.Counters.Retransmits)
	}
	return nil
}

func runLoadSweep(cfg netdimm.Config) (err error) {
	rates, err := parseFloats("-rate", *loadRates)
	if err != nil {
		return err
	}
	if *hosts != 0 {
		cfg.Load.Hosts = *hosts
	}
	if *cluster != "" {
		cfg.Load.Cluster = *cluster
	}
	rows, knees, ob, err := netdimm.RunLoadSweepObserved(obsConfig(cfg), rates, *packets, *seed, *parallel)
	if err != nil {
		return err
	}
	defer emitAfter(ob, &err)
	if *asCSV {
		fmt.Print(netdimm.LoadSweepCSV(rows))
		return nil
	}
	fmt.Println("Load sweep — rack-scale incast: end-to-end latency vs offered load")
	fmt.Printf("%-8s  %7s  %10s  %10s  %10s  %10s  %9s  %7s  %8s\n",
		"arch", "load", "mean", "p50", "p99", "p99.9", "delivered", "dropped", "rx depth")
	for _, r := range rows {
		fmt.Printf("%-8s  %7g  %10v  %10v  %10v  %10v  %9d  %7d  %8d\n",
			r.Arch, r.OfferedLoad, r.Mean, r.P50, r.P99, r.P999, r.Delivered, r.Dropped, r.RxMaxDepth)
	}
	fmt.Println("\nSaturation knees (highest load with p99 within the knee factor of baseline)")
	for _, k := range knees {
		if !k.Saturated {
			fmt.Printf("  %-8s no knee: curve never saturated within the swept grid\n", k.Arch)
			continue
		}
		fmt.Printf("  %-8s saturates beyond %g of line rate\n", k.Arch, k.Knee)
	}
	return nil
}

func runRackSweep(cfg netdimm.Config) (err error) {
	rates, err := parseFloats("-rate", *loadRates)
	if err != nil {
		return err
	}
	racks, err := parseInts("-racks", *rackList)
	if err != nil {
		return err
	}
	if *hosts != 0 {
		cfg.Load.Hosts = *hosts
	}
	if *cluster != "" {
		cfg.Load.Cluster = *cluster
	}
	rows, knees, ob, err := netdimm.RunRackSweepObserved(obsConfig(cfg), racks, rates, explicitPackets(), *seed, *parallel)
	if err != nil {
		return err
	}
	defer emitAfter(ob, &err)
	ecnStr := func(on bool) string {
		if on {
			return "on"
		}
		return "off"
	}
	if *asCSV {
		fmt.Print(netdimm.RackSweepCSV(rows))
		return nil
	}
	fmt.Println("Rack sweep — leaf/spine clos: end-to-end latency vs per-host load")
	fmt.Printf("%-8s  %5s  %4s  %6s  %10s  %10s  %10s  %9s  %7s  %7s  %6s\n",
		"arch", "racks", "ecn", "load", "mean", "p99", "p99.9", "delivered", "dropped", "marked", "xrack")
	for _, r := range rows {
		fmt.Printf("%-8s  %5d  %4s  %6g  %10v  %10v  %10v  %9d  %7d  %7d  %6d\n",
			r.Arch, r.Racks, ecnStr(r.ECN), r.OfferedLoad, r.Mean, r.P99, r.P999,
			r.Delivered, r.Dropped, r.Marked, r.CrossRack)
	}
	fmt.Println("\nSaturation knees per (arch, racks, ECN) curve")
	for _, k := range knees {
		if !k.Saturated {
			fmt.Printf("  %-8s racks=%d ecn=%-3s no knee: curve never saturated within the swept grid\n",
				k.Arch, k.Racks, ecnStr(k.ECN))
			continue
		}
		fmt.Printf("  %-8s racks=%d ecn=%-3s saturates beyond %g of line rate\n",
			k.Arch, k.Racks, ecnStr(k.ECN), k.Knee)
	}
	return nil
}

func runFailSweep(cfg netdimm.Config) (err error) {
	outages, err := parseList("-outage", *outageList, time.ParseDuration)
	if err != nil {
		return err
	}
	if *hosts != 0 {
		cfg.Load.Hosts = *hosts
	}
	if *cluster != "" {
		cfg.Load.Cluster = *cluster
	}
	rows, ob, err := netdimm.RunFailSweepObserved(obsConfig(cfg), outages, explicitPackets(), *seed, *parallel)
	if err != nil {
		return err
	}
	defer emitAfter(ob, &err)
	if *asCSV {
		fmt.Print(netdimm.FailSweepCSV(rows))
		return nil
	}
	fmt.Println("Failure sweep — scheduled spine outage: failover, recovery, tail inflation")
	fmt.Printf("%-8s  %7s  %9s  %7s  %8s  %8s  %7s  %9s  %10s  %10s  %10s  %9s\n",
		"arch", "outage", "delivered", "dropped", "rerouted", "retrans", "recov", "reroute", "mean recov", "p99 before", "p99 after", "inflation")
	for _, r := range rows {
		reroute := "-"
		if r.TimeToReroute >= 0 {
			reroute = r.TimeToReroute.String()
		}
		inflation := "-"
		if r.TailInflation > 0 {
			inflation = fmt.Sprintf("%.2fx", r.TailInflation)
		}
		fmt.Printf("%-8s  %7v  %9d  %7d  %8d  %8d  %7d  %9s  %10v  %10v  %10v  %9s\n",
			r.Arch, r.Outage, r.Delivered, r.Dropped, r.Rerouted, r.Retransmits, r.Recovered,
			reroute, r.MeanRecovery, r.P99Before, r.P99After, inflation)
	}
	return nil
}

// parseFloats parses a comma-separated number list given to the named
// flag; an empty list selects the experiment's default grid (nil).
func parseFloats(name, s string) ([]float64, error) {
	return parseList(name, s, func(t string) (float64, error) { return strconv.ParseFloat(t, 64) })
}

// parseInts parses a comma-separated integer list given to the named
// flag; an empty list selects the experiment's default grid (or the
// scenario's pinned value).
func parseInts(name, s string) ([]int, error) {
	return parseList(name, s, strconv.Atoi)
}

// parseList splits s on commas, trims each entry and parses it; an error
// names the flag and the offending entry.
func parseList[T any](name, s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%s: bad entry %q: %v", name, part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseOps parses the -ops flag; an empty flag selects all operations (or
// the scenario's pinned Collective.Op).
func parseOps(s string) []string {
	if s == "" {
		return nil
	}
	var ops []string
	for _, part := range strings.Split(s, ",") {
		ops = append(ops, strings.TrimSpace(part))
	}
	return ops
}

func runCollSweep(cfg netdimm.Config) (err error) {
	ranks, err := parseInts("-ranks", *rankList)
	if err != nil {
		return err
	}
	if *payload != 0 {
		cfg.Collective.PayloadBytes = *payload
	}
	rows, ob, err := netdimm.RunCollSweepObserved(obsConfig(cfg), ranks, parseOps(*opsList), *seed, *parallel)
	if err != nil {
		return err
	}
	defer emitAfter(ob, &err)
	if *asCSV {
		fmt.Print(netdimm.CollSweepCSV(rows))
		return nil
	}
	fmt.Println("Collective sweep — completion time vs rank count (every cell verified against a sequential reference)")
	fmt.Printf("%-8s  %-13s  %5s  %5s  %12s  %11s  %10s  %7s  %6s\n",
		"arch", "op", "ranks", "steps", "completion", "step skew", "wire bytes", "marked", "util")
	for _, r := range rows {
		fmt.Printf("%-8s  %-13s  %5d  %5d  %12v  %11v  %10d  %7d  %5.1f%%\n",
			r.Arch, r.Op, r.Ranks, r.Steps, r.Completion, r.StepSkew,
			r.BytesOnWire, r.Marked, r.LinkUtilization*100)
	}
	return nil
}

func runHeadline(cfg netdimm.Config) error {
	h, err := netdimm.RunHeadlineWithConfig(cfg, *packets, *parallel)
	if err != nil {
		return err
	}
	fmt.Println("Headline numbers (paper values in parentheses)")
	fmt.Printf("  avg one-way latency reduction vs dNIC: %.1f%% (49.9%%)\n", h.AvgReductionVsDNIC*100)
	fmt.Printf("  avg one-way latency reduction vs iNIC: %.1f%% (25.9%%)\n", h.AvgReductionVsINIC*100)
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
		fmt.Printf("  trace replay reduction @%v switch: %.1f%% (%s)\n",
			k, h.TraceReductionBySwitch[k]*100, paper[k])
	}
	fmt.Printf("  DPI worst-case app-latency increase vs iNIC: +%.1f%% (+15.4%%)\n", h.DPIWorst*100)
	fmt.Printf("  L3F best-case app-latency reduction vs iNIC: -%.1f%% (-30.9%%)\n", h.L3FBest*100)
	return nil
}
