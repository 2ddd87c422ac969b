// Command netdimm-sim runs the paper's experiments and prints their
// tables/series.
//
// Usage:
//
//	netdimm-sim [flags] <experiment>
//	netdimm-sim [flags] campaign -grid FILE [-outdir DIR]
//
// Experiments: table1, fig4, fig5, fig7, fig11, fig12a, fig12b, bandwidth,
// ablation, mixed, replay, faultsweep, loadsweep, racksweep, failsweep,
// collsweep, headline, all. The -scenario flag selects the simulated
// system: a named preset (table1, ddr5, pcie-gen3, lossy-1pct) or a JSON
// config file.
//
// Each experiment family is declared once, in the families table
// (families.go): its help line, whether `all` runs it, its campaign CSV
// schema, whether it honours -csv, -trace and -metrics, and one run
// function. A command-line verb and a campaign cell both call that
// function; a flag the family cannot honour is an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"netdimm"
	"netdimm/internal/experiments"
	"netdimm/internal/sim"
)

var (
	packets    = flag.Int("n", experiments.DefaultPackets, "packets per cell (fig12a, headline, bandwidth, mixed, faultsweep, loadsweep; racksweep and failsweep only when set, else their own defaults)")
	switchLat  = flag.Duration("switch", 0, "switch port-to-port latency, overriding the scenario's SwitchLatNs (Table 1: 100ns) in table1, fig4, fig11, replay, faultsweep, loadsweep, racksweep, failsweep, collsweep and headline's Fig. 11 part; fig12a sweeps the paper's 25-200ns axis")
	seed       = flag.Uint64("seed", 3, "trace generator seed")
	asCSV      = flag.Bool("csv", false, "emit plot-ready CSV instead of tables ("+familyNames(hasCSV)+")")
	parallel   = flag.Int("parallel", 0, "worker goroutines per sweep: 0 = all cores, 1 = sequential, N = at most N")
	scenario   = flag.String("scenario", "", "system to simulate: a preset name or a JSON config file (default table1)")
	lossRates  = flag.String("loss", "", "comma-separated frame-loss rates for faultsweep (default "+grid(experiments.DefaultLossGrid, formatFloat)+")")
	loadRates  = flag.String("rate", "", "comma-separated offered loads (fractions of line rate) for loadsweep and racksweep (default a grid bracketing each knee)")
	hosts      = flag.Int("hosts", 0, "sender hosts for loadsweep (0 = scenario value or 8), racksweep (or 256) and failsweep (or 32)")
	rackList   = flag.String("racks", "", "comma-separated rack (leaf) counts for racksweep (default "+grid(experiments.DefaultRackGrid, strconv.Itoa)+"; a scenario Fabric.Leaves pins one)")
	outageList = flag.String("outage", "", "comma-separated spine-outage durations for failsweep, Go duration syntax (default "+grid(experiments.DefaultOutageGrid, formatDuration)+"; 0 is the baseline)")
	cluster    = flag.String("cluster", "", "traffic distribution for loadsweep, racksweep and failsweep: database, webserver or hadoop (default scenario value or database)")
	traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file of the run ("+familyNames(observes)+"); open in ui.perfetto.dev")
	metrics    = flag.Bool("metrics", false, "collect and print the metrics registry after the experiment output ("+familyNames(observes)+")")
	rankList   = flag.String("ranks", "", "comma-separated rank counts for collsweep (default "+grid(experiments.DefaultCollRankGrid, strconv.Itoa)+"; a scenario Collective.Ranks pins one)")
	opsList    = flag.String("ops", "", "comma-separated collective ops for collsweep: allreduce, broadcast, reducescatter (default all three; a scenario Collective.Op pins one)")
	payload    = flag.Int("payload", 0, "per-rank vector bytes for collsweep (0 = scenario value or 64KiB)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file after the run (go tool pprof)")
)

// grid renders a default axis in the comma-separated form its flag takes.
func grid[T any](values []T, format func(T) string) string {
	s := make([]string, len(values))
	for i, v := range values {
		s[i] = format(v)
	}
	return strings.Join(s, ",")
}

func formatFloat(v float64) string     { return strconv.FormatFloat(v, 'g', -1, 64) }
func formatDuration(t sim.Time) string { return t.Duration().String() }

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
	if err == nil && flagWasSet("switch") {
		cfg.SwitchLatNs = int(*switchLat / time.Nanosecond)
		if err = cfg.Validate(); err != nil {
			err = fmt.Errorf("-switch %v: %w", *switchLat, err)
		}
	}
	if err == nil {
		err = profiled(func() error { return run(cfg, exp) })
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netdimm-sim: %v\n", err)
		os.Exit(1)
	}
}

// profiled runs fn under the -cpuprofile and -memprofile flags: a CPU
// profile covers fn, and the heap profile is written after it returns.
// Neither writes to stdout.
func profiled(fn func() error) (err error) {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if err := fn(); err != nil || *memProfile == "" {
		return err
	}
	f, err := os.Create(*memProfile)
	if err != nil {
		return err
	}
	runtime.GC() // the profile shows the heap as of the last collection
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: netdimm-sim [flags] <experiment>\n\nexperiments:\n")
	for _, f := range families {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", f.name, f.help)
	}
	fmt.Fprintf(os.Stderr, "  %-9s %s\n", "campaign", "run a grid of experiments from -grid FILE into a timestamped output dir")
	fmt.Fprintf(os.Stderr, "  %-9s %s\n", "all", "every experiment above that needs no extra argument")
	fmt.Fprintf(os.Stderr, "\nscenarios (for -scenario; or pass a JSON config file):\n  %v\n\nflags:\n",
		netdimm.Scenarios())
	flag.PrintDefaults()
}

// run executes one verb: a family, `all` (every inAll family, applying
// -csv, -trace and -metrics where the family supports them) or `campaign`.
func run(cfg netdimm.Config, exp string) error {
	if exp == "campaign" {
		return runCampaign()
	}
	var todo []family
	for _, f := range families {
		if f.inAll && exp == "all" || f.name == exp {
			todo = append(todo, f)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if f := todo[0]; exp != "all" {
		switch {
		case *traceOut != "" && !f.observes:
			return fmt.Errorf("-trace: %s records no trace (families that do: %s)", f.name, familyNames(observes))
		case *metrics && !f.observes:
			return fmt.Errorf("-metrics: %s records no metrics (families that do: %s)", f.name, familyNames(observes))
		case *asCSV && !f.csv:
			return fmt.Errorf("-csv: %s has no CSV form (families that do: %s)", f.name, familyNames(hasCSV))
		}
	}
	a, err := flagAxes()
	if err != nil {
		return err
	}
	for i, f := range todo {
		if i > 0 {
			fmt.Println()
		}
		if err := runFamily(f, cfg, a); err != nil {
			return err
		}
	}
	return nil
}

// flagAxes collects the family parameters from the command line.
func flagAxes() (axes, error) {
	if *packets < 1 {
		return axes{}, fmt.Errorf("-n: packets per cell must be at least 1, got %d", *packets)
	}
	a := axes{packets: *packets, seed: *seed, parallel: *parallel,
		hosts: *hosts, cluster: *cluster, payload: *payload, file: flag.Arg(1)}
	var err error
	if a.loss, err = parseFloats("-loss", *lossRates); err != nil {
		return a, err
	}
	if a.loads, err = parseFloats("-rate", *loadRates); err != nil {
		return a, err
	}
	if a.racks, err = parseInts("-racks", *rackList); err != nil {
		return a, err
	}
	if a.ranks, err = parseInts("-ranks", *rankList); err != nil {
		return a, err
	}
	if a.ops, err = parseList("-ops", *opsList, func(t string) (string, error) { return t, nil }); err != nil {
		return a, err
	}
	a.outages, err = parseList("-outage", *outageList, time.ParseDuration)
	return a, err
}

// runFamily runs one family from the command line and prints its table,
// or its CSV under -csv; an observing family then prints its -metrics
// tails, writes its -trace file and prints its metrics registry.
func runFamily(f family, cfg netdimm.Config, a axes) error {
	if f.ownPackets && !flagWasSet("n") {
		// The -n default (experiments.DefaultPackets) suits
		// single-switch cells; the clos-scale sweeps split it across
		// hundreds of hosts, so unless -n is given they apply their own
		// per-cell default.
		a.packets = 0
	}
	if f.observes {
		cfg.Obs.Trace = cfg.Obs.Trace || *traceOut != ""
		cfg.Obs.Metrics = cfg.Obs.Metrics || *metrics
	}
	out, err := f.run(cfg, a)
	if err != nil {
		return err
	}
	if *asCSV && f.csv {
		fmt.Print(out.csv)
	} else {
		fmt.Print(out.table)
	}
	if !f.observes {
		return nil
	}
	if *metrics {
		fmt.Print(out.tails)
	}
	return emitObservation(out.ob)
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
