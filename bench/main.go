// Command bench measures the simulator's own host time and memory on four
// pinned workloads, each a call into the public netdimm facade, and splits
// that time over the simulator's layers with a separate traced pass. See
// README.md for the workloads, the metrics and how to read the output.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash bench/run.sh -seed 3 -k 5 -out results.json   # all workloads
//	bash bench/run.sh -w rack,incast -k 10              # a subset
//	bash bench/run.sh -workload rack -seed 3 -seconds 20 -trace 0
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"
)

// minPairs is the fewest repeat pairs a -seconds run measures, however
// long they take.
const minPairs = 3

// errIncorrect marks a run whose correctness gate failed; its results are
// still printed.
var errIncorrect = errors.New("correctness gate failed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names string
	fs.StringVar(&names, "workload", "rack,incast,latency,allreduce", "comma-separated workloads to run")
	fs.StringVar(&names, "w", "rack,incast,latency,allreduce", "shorthand for -workload")
	seed := fs.Uint64("seed", pinnedSeed, "workload seed")
	k := fs.Int("k", 5, "timed repeat pairs per workload, interleaved across workloads")
	seconds := fs.Int("seconds", 0, "measure one workload for about this many seconds instead of -k pairs, and print one JSON result line")
	trace := fs.Int("trace", 0, "with -seconds: 1 runs the traced pass (per-layer metrics) instead of the timed pairs (end-to-end metrics)")
	out := fs.String("out", "", "write the results as JSON to this file")
	chrome := fs.String("chrome", "", "directory to write each workload's first 10000 traced spans to, as <workload>.json in Chrome trace-event format")
	compare := fs.Bool("compare", false, "compare two results files given as arguments: baseline, then candidate")
	child := fs.String("child", "", "internal: run one measured call in this process (full, twin or trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files, got %d arguments", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	var ws []*workloadDef
	for _, name := range strings.Split(names, ",") {
		w, err := lookupWorkload(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	if *child != "" {
		return childMain(*child, ws[0], *seed, *chrome)
	}
	digests, err := pinnedDigests()
	if err != nil {
		return err
	}
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w, seed: *seed, pinned: digests[w.name]}
	}
	chromeFile := func(w *workloadDef) string {
		if *chrome == "" {
			return ""
		}
		return filepath.Join(*chrome, w.name+".json")
	}
	if *chrome != "" {
		if err := os.MkdirAll(*chrome, 0o755); err != nil {
			return err
		}
	}

	if *seconds > 0 {
		if len(runs) != 1 {
			return fmt.Errorf("-seconds measures one workload, got %d", len(runs))
		}
		if *trace != 0 && *trace != 1 {
			return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
		}
		r := runs[0]
		if *trace == 1 {
			if err := r.runPair(true); err != nil {
				return err
			}
			if err := r.runTrace(chromeFile(r.w)); err != nil {
				return err
			}
		} else if err := measureFor(r, time.Duration(*seconds)*time.Second); err != nil {
			return err
		}
		rep := r.report()
		printReport(stdout, currentHost(), []report{rep})
		if err := writeResults(*out, *seed, []report{rep}); err != nil {
			return err
		}
		return printResultLine(stdout, rep, *trace == 1)
	}

	if *k < 1 {
		return fmt.Errorf("-k must be at least 1, got %d", *k)
	}
	for rep := 0; rep < *k; rep++ {
		for _, r := range runs {
			fmt.Fprintf(os.Stderr, "bench: %s pair %d/%d\n", r.w.name, rep+1, *k)
			if err := r.runPair(rep%2 == 0); err != nil {
				return err
			}
		}
	}
	for _, r := range runs {
		fmt.Fprintf(os.Stderr, "bench: %s traced pass\n", r.w.name)
		if err := r.runTrace(chromeFile(r.w)); err != nil {
			return err
		}
	}
	reps := make([]report, len(runs))
	failed := 0
	for i, r := range runs {
		reps[i] = r.report()
		failed += r.failed
	}
	printReport(stdout, currentHost(), reps)
	if err := writeResults(*out, *seed, reps); err != nil {
		return err
	}
	if failed > 0 {
		return errIncorrect
	}
	return nil
}

// measureFor runs repeat pairs until the next one would overrun budget,
// and at least minPairs of them.
func measureFor(r *workloadRun, budget time.Duration) error {
	start := time.Now()
	for i := 0; ; i++ {
		pairStart := time.Now()
		if err := r.runPair(i%2 == 0); err != nil {
			return err
		}
		if i+1 >= minPairs && time.Since(start)+time.Since(pairStart) > budget {
			return nil
		}
	}
}

func writeResults(path string, seed uint64, reps []report) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(results{Host: currentHost(), Seed: seed, Workloads: reps}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine prints the single-line JSON result of a -seconds run:
// the end-to-end metrics, or with traced the per-layer metrics every
// workload reports.
func printResultLine(w io.Writer, rep report, traced bool) error {
	metrics := map[string]metricValue{}
	if traced {
		for _, d := range perLayerMetrics {
			v, ok := rep.PerLayer[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: per-layer metric %s was not measured", rep.Name, d.Name)
			}
			metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	} else {
		for _, d := range endToEndMetrics {
			metrics[d.Name] = metricValue{Value: rep.EndToEnd[d.Name].Median, Unit: d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if rep.Failed > 0 {
		return errIncorrect
	}
	return nil
}

// printReport prints every workload's metrics by name with their units,
// and the traced pass's reconciliation.
func printReport(w io.Writer, host hostInfo, reps []report) {
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s, %s %s/%s, revision %s\n",
		host.NumCPU, host.GOMAXPROCS, host.CPUModel, host.GoVersion, host.GOOS, host.GOARCH, orUnknown(host.GitRevision))
	for _, rep := range reps {
		fmt.Fprintf(w, "\n== %s: %d repeat pairs, %d cells attempted, %d failed (failed_frac %.4g)\n",
			rep.Name, rep.Pairs, rep.Attempted, rep.Failed, rep.FailedFrac)
		for _, p := range rep.Problems {
			fmt.Fprintf(w, "   FAIL %s\n", p)
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		if len(rep.EndToEnd) > 0 {
			fmt.Fprintln(tw, "end-to-end (tracing off)\tmedian\tq1\tq3\tspread\tbound\tn\tunit\t")
			for _, d := range endToEndMetrics {
				s := rep.EndToEnd[d.Name]
				fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t%d\t%s\t\n",
					d.Name, s.Median, s.Q1, s.Q3, 100*spread(s.Samples), 100*d.Bound, s.N, d.Unit)
			}
			for _, name := range sortedKeys(rep.Raw) {
				s := rep.Raw[name]
				fmt.Fprintf(tw, "uncalibrated %s\t%.6g\t%.6g\t%.6g\t%.1f%%\t\t%d\t%s\t\n",
					name, s.Median, s.Q1, s.Q3, 100*spread(s.Samples), s.N, rawUnits[name])
			}
		}
		if len(rep.PerLayer) > 0 {
			fmt.Fprintln(tw, "per-layer (traced pass)\tvalue\tunit\t")
			for _, name := range sortedKeys(rep.PerLayer) {
				fmt.Fprintf(tw, "%s\t%.6g\t%s\t\n", name, rep.PerLayer[name], metricUnit(name))
			}
		}
		tw.Flush()
		if rc := rep.Recon; rc != nil {
			fmt.Fprintln(w, "reconciliation, host ns per offered packet (fabric and sim inside Engine.Run are derived):")
			tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
			for _, layer := range reconLayers {
				fmt.Fprintf(tw, "%s\t", layer)
			}
			fmt.Fprintln(tw, "sum\ttraced wall\tunattributed\t")
			for _, layer := range reconLayers {
				fmt.Fprintf(tw, "%.1f\t", rc.LayerNsPerPkt[layer])
			}
			fmt.Fprintf(tw, "%.1f\t%.1f\t%.1f\t\n", rc.SumNsPerPkt, rc.WallNsPerPkt, rc.Unattributed)
			tw.Flush()
		}
	}
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}
