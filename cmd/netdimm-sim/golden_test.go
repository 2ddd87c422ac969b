package main

import (
	"bytes"
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
// the same golden as their default run: output must not depend on it.
var goldenCases = []struct {
	args   string
	golden string
	slow   bool
}{
	{"table1", "table1.txt", false},
	{"-csv fig4", "fig4-table1.csv", false},
	{"-csv -scenario ddr5 fig4", "fig4-ddr5.csv", false},
	{"-csv -scenario pcie-gen3 fig11", "fig11-pcie-gen3.csv", false},
	{"-csv loadsweep", "loadsweep-default.csv", false},
	{"-csv racksweep", "racksweep-default.csv", true},
	{"-csv failsweep", "failsweep-default.csv", false},
	{"-csv collsweep", "collsweep-default.csv", false},
	{"-csv -parallel 4 failsweep", "failsweep-default.csv", false},
	{"-csv -parallel 4 collsweep", "collsweep-default.csv", false},
}

// TestGoldens runs each golden command through the CLI and compares its
// stdout byte for byte with testdata/golden. With -update the first case
// of each golden rewrites it instead; later cases sharing that golden
// are still compared.
func TestGoldens(t *testing.T) {
	written := map[string]bool{}
	for _, tc := range goldenCases {
		t.Run(tc.args, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("slow golden skipped under -short")
			}
			cmd := exec.Command(os.Args[0], strings.Fields(tc.args)...)
			cmd.Env = append(os.Environ(), cliEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("netdimm-sim %s: %v\n%s", tc.args, err, stderr.String())
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
	if err := runFig11(netdimm.DefaultConfig()); err == nil {
		t.Fatal("runFig11 with an uncreatable -trace path returned nil")
	}
}
