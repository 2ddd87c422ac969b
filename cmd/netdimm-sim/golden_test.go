package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"netdimm"
)

// cliEnv, when set in a child's environment, makes the test binary run
// the netdimm-sim command itself instead of the tests, so golden checks
// drive the real flag parsing and output path.
const cliEnv = "NETDIMM_SIM_RUN_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenCases are the pinned CLI outputs. The -parallel cases diff against
// the same golden as their default run: output must not depend on it. A
// trace case pins the SHA-256 digest of the run's -trace file instead of
// its stdout, so a large trace costs one line of testdata. The replay case
// reads testdata/hadoop-300.ndtr, written by
// `netdimm-trace gen -cluster hadoop -n 300 -seed 5`.
var goldenCases = []struct {
	args   string
	golden string
	slow   bool
	trace  bool
}{
	{"table1", "table1.txt", false, false},
	{"-scenario ddr5 table1", "table1-ddr5.txt", false, false},
	{"-csv fig4", "fig4-table1.csv", false, false},
	{"-csv -scenario ddr5 fig4", "fig4-ddr5.csv", false, false},
	{"-csv fig5", "fig5-table1.csv", true, false},
	{"-csv fig7", "fig7-table1.csv", false, false},
	{"-csv -scenario pcie-gen3 fig11", "fig11-pcie-gen3.csv", false, false},
	{"-csv fig12a", "fig12a-table1.csv", false, false},
	{"-csv fig12b", "fig12b-table1.csv", false, false},
	{"ablation", "ablation.txt", false, false},
	{"mixed", "mixed.txt", false, false},
	{"mixed", "mixed-trace.sha256", false, true},
	{"-metrics mixed", "mixed-metrics.txt", false, false},
	{"-metrics -parallel 3 mixed", "mixed-metrics.txt", false, false},
	{"headline", "headline.txt", false, false},
	{"bandwidth", "bandwidth.txt", false, false},
	{"-csv faultsweep", "faultsweep-default.csv", false, false},
	{"-csv loadsweep", "loadsweep-default.csv", false, false},
	{"-csv racksweep", "racksweep-default.csv", true, false},
	{"-csv failsweep", "failsweep-default.csv", false, false},
	{"-csv collsweep", "collsweep-default.csv", false, false},
	{"-csv -parallel 4 failsweep", "failsweep-default.csv", false, false},
	{"-csv -parallel 4 collsweep", "collsweep-default.csv", false, false},
	{"-csv -parallel 4 loadsweep", "loadsweep-default.csv", false, false},
	{"-metrics -csv loadsweep", "loadsweep-metrics.txt", false, false},
	{"-metrics -csv -scenario ../../scenarios/clos-2x4.json -rate 0.2,0.8 racksweep", "racksweep-clos-2x4-metrics.txt", false, false},
	{"-metrics -csv -scenario ../../scenarios/spine-fail.json failsweep", "failsweep-spine-fail-metrics.txt", false, false},
	{"fig4", "fig4-table1.txt", false, false},
	{"fig5", "fig5-table1.txt", true, false},
	{"fig7", "fig7-table1.txt", false, false},
	{"fig11", "fig11-table1.txt", false, false},
	{"-metrics fig11", "fig11-metrics.txt", false, false},
	{"-metrics -parallel 3 fig11", "fig11-metrics.txt", false, false},
	{"fig12a", "fig12a-table1.txt", false, false},
	{"fig12b", "fig12b-table1.txt", false, false},
	{"faultsweep", "faultsweep-default.txt", false, false},
	{"-metrics faultsweep", "faultsweep-metrics.txt", false, false},
	{"-metrics -csv faultsweep", "faultsweep-metrics-csv.txt", false, false},
	{"loadsweep", "loadsweep-default.txt", false, false},
	{"racksweep", "racksweep-default.txt", true, false},
	{"failsweep", "failsweep-default.txt", false, false},
	{"collsweep", "collsweep-default.txt", false, false},
	{"-metrics collsweep", "collsweep-metrics.txt", false, false},
	{"-metrics -csv -scenario ../../scenarios/clos-2x4.json -ranks 8,16 collsweep", "collsweep-clos-2x4-metrics.txt", false, false},
	{"collsweep", "collsweep-trace.sha256", false, true},
	{"replay testdata/hadoop-300.ndtr", "replay-hadoop-300.txt", false, false},
}

// TestGoldens runs each golden command through the CLI and compares its
// stdout byte for byte with testdata/golden. With -update the first case
// of each golden rewrites it instead; later cases sharing that golden
// are still compared.
func TestGoldens(t *testing.T) {
	written := map[string]bool{}
	for _, tc := range goldenCases {
		name := tc.args
		if tc.trace {
			name = "-trace " + name
		}
		t.Run(name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("slow golden skipped under -short")
			}
			args := strings.Fields(tc.args)
			traceFile := filepath.Join(t.TempDir(), "trace.json")
			if tc.trace {
				args = append([]string{"-trace", traceFile}, args...)
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), cliEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("netdimm-sim %s: %v\n%s", tc.args, err, stderr.String())
			}
			if tc.trace {
				trace, err := os.ReadFile(traceFile)
				if err != nil {
					t.Fatal(err)
				}
				got = fmt.Appendf(nil, "%x\n", sha256.Sum256(trace))
			}
			path := filepath.Join("testdata", "golden", tc.golden)
			if *updateGolden && !written[tc.golden] {
				written[tc.golden] = true
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("netdimm-sim %s drifted from golden %s (regenerate with -update if deliberate)\n%s",
					tc.args, path, firstDiff(got, want))
			}
		})
	}
}

// TestZeroPacketsRenderDefaultGoldens: for every family, its run with
// packets left at 0 — each facade call's documented default — renders the
// bytes of the golden that `netdimm-sim <family>` pins at the -n default,
// so a library default that drifts from the command line's fails here. A
// family whose command-line run passes packets 0 already (ownPackets) or
// takes no packet count (fig5) is left to TestGoldens.
func TestZeroPacketsRenderDefaultGoldens(t *testing.T) {
	cfg, err := netdimm.LoadScenario("")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tc := range goldenCases {
		args := strings.Fields(tc.args)
		f, ok := lookup(args[0])
		// The default run of a family: its bare verb, or replay and its
		// trace file.
		if !ok || tc.trace || len(args) > 1 && f.name != "replay" {
			continue
		}
		seen[f.name] = true
		if f.ownPackets || f.name == "fig5" {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			a, err := flagAxes()
			if err != nil {
				t.Fatal(err)
			}
			a.packets = 0
			if len(args) > 1 {
				a.file = args[1]
			}
			out, err := f.run(cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if out.table != string(want) {
				t.Fatalf("%s with packets 0 differs from golden %s\n%s", f.name, tc.golden, firstDiff([]byte(out.table), want))
			}
		})
	}
	for _, f := range families {
		if !seen[f.name] {
			t.Errorf("family %s has no default golden", f.name)
		}
	}
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "outputs differ"
}

// TestTraceWriteErrorPropagates: a -trace file that cannot be created must
// fail the runner, not be dropped after the table is printed.
func TestTraceWriteErrorPropagates(t *testing.T) {
	old, oldOut := *traceOut, os.Stdout
	defer func() { *traceOut, os.Stdout = old, oldOut }()
	*traceOut = filepath.Join(t.TempDir(), "no-such-dir", "t.json")
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	os.Stdout = devNull
	if err := run(netdimm.DefaultConfig(), "fig11"); err == nil {
		t.Fatal("fig11 with an uncreatable -trace path returned nil")
	}
}
