package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"netdimm/internal/campaign"
	"netdimm/internal/experiments"
)

func TestParseLists(t *testing.T) {
	floats := []struct {
		in      string
		want    []float64
		wantErr string
	}{
		{"", nil, ""},
		{"0.1", []float64{0.1}, ""},
		{" 0.05 ,0.2,  1e-3 ", []float64{0.05, 0.2, 0.001}, ""},
		{"0.1,x", nil, `-rate: bad entry "x": strconv.ParseFloat: parsing "x": invalid syntax`},
		{"0.1,,0.2", nil, `-rate: bad entry "": `},
	}
	for _, tc := range floats {
		got, err := parseFloats("-rate", tc.in)
		checkParse(t, "parseFloats", tc.in, got, tc.want, err, tc.wantErr)
	}
	ints := []struct {
		in      string
		want    []int
		wantErr string
	}{
		{"", nil, ""},
		{"2, 4 ,8", []int{2, 4, 8}, ""},
		{"4,1.5", nil, `-ranks: bad entry "1.5": strconv.Atoi: parsing "1.5": invalid syntax`},
		{" ", nil, `-ranks: bad entry " ": `},
	}
	for _, tc := range ints {
		got, err := parseInts("-ranks", tc.in)
		checkParse(t, "parseInts", tc.in, got, tc.want, err, tc.wantErr)
	}
}

func checkParse[T any](t *testing.T, fn, in string, got, want []T, err error, wantErr string) {
	t.Helper()
	if wantErr != "" {
		if err == nil || !strings.HasPrefix(err.Error(), wantErr) {
			t.Errorf("%s(%q) error = %v, want prefix %q", fn, in, err, wantErr)
		}
		return
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%s(%q) = %v, %v; want %v", fn, in, got, err, want)
	}
}

// TestCampaignRejectsStrayArgument: a positional argument after the
// campaign flags is a usage error, not silently ignored while the grid
// runs.
func TestCampaignRejectsStrayArgument(t *testing.T) {
	dir := t.TempDir()
	grid := filepath.Join(dir, "g.json")
	if err := os.WriteFile(grid, []byte(`{"Experiments": [{"Experiment": "fig4", "Sizes": [64]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "campaign", "-grid", grid, "-outdir", dir, "typo")
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("campaign with a stray argument: err = %v, want exit status 2\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unexpected argument "typo"`) {
		t.Fatalf("stderr does not name the stray argument:\n%s", stderr.String())
	}
}

// TestRejectsFlagsAFamilyCannotHonour: a single verb given -trace or
// -metrics whose family records no observation, or -csv on a family with
// no CSV form, fails before running and names the families that can.
func TestRejectsFlagsAFamilyCannotHonour(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-trace", trace, "fig4"}, "-trace: fig4 records no trace (families that do: fig11, mixed, faultsweep, loadsweep, racksweep, failsweep, collsweep)"},
		{[]string{"-metrics", "fig12a"}, "-metrics: fig12a records no metrics (families that do: fig11, mixed,"},
		{[]string{"-csv", "headline"}, "-csv: headline has no CSV form (families that do: fig4, fig5, fig7, fig11, fig12a, fig12b, ablation, faultsweep,"},
		{[]string{"-csv", "table1"}, "-csv: table1 has no CSV form"},
		{[]string{"campaign", "-grid", "g.json", "-metrics"}, "campaign: -csv, -trace and -metrics do not apply"},
	}
	for _, tc := range cases {
		expectCLIError(t, tc.args, tc.want)
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Errorf("a rejected -trace run left a trace file (stat: %v)", err)
	}
}

// TestRejectsNegativePacketsAndSwitch: -n below 1 is an error naming the
// flag, not a silent fallback to a default under a wrong header, a
// negative switch latency is rejected instead of shortening every path,
// and a -loss rate outside [0,1] is rejected instead of running a
// mislabelled lossless row or spinning until the event budget trips.
func TestRejectsNegativePacketsAndSwitch(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-7", "fig12a"}, "-n: packets per cell must be at least 1, got -7"},
		{[]string{"-n", "0", "fig12a"}, "-n: packets per cell must be at least 1, got 0"},
		{[]string{"-n", "0", "racksweep"}, "-n: packets per cell must be at least 1, got 0"},
		{[]string{"-switch", "-100ns", "fig4"}, "-switch -100ns: spec: SwitchLatNs must not be negative, got -100"},
		{[]string{"-switch", "-1ns", "fig11"}, "-switch -1ns: spec: SwitchLatNs must not be negative, got -1"},
		{[]string{"-switch", "-1ns", "replay", "testdata/hadoop-300.ndtr"}, "-switch -1ns: spec: SwitchLatNs must not be negative, got -1"},
		{[]string{"-switch", "2s", "loadsweep"}, "-switch 2s: spec: SwitchLatNs must be at most 1000000000"},
		{[]string{"-loss", "-0.5", "faultsweep"}, "faultsweep: loss rate -0.5 must be a probability in [0,1]"},
		{[]string{"-loss", "2", "faultsweep"}, "faultsweep: loss rate 2 must be a probability in [0,1]"},
	}
	for _, tc := range cases {
		expectCLIError(t, tc.args, tc.want)
	}
}

// TestSwitchLatencyHasOneSource: the scenario's SwitchLatNs, the -switch
// flag and a campaign row's SwitchNs all set the one switch latency, so a
// scenario reaches fig11 as -switch does, -switch reaches the fabric
// sweeps, and campaign rows that differ only in SwitchNs record different
// configurations.
func TestSwitchLatencyHasOneSource(t *testing.T) {
	dir := t.TempDir()
	scen := filepath.Join(dir, "switch500.json")
	if err := os.WriteFile(scen, []byte(`{"SwitchLatNs": 500}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fromScenario := runCLI(t, "-csv", "-scenario", scen, "fig11")
	if fromFlag := runCLI(t, "-csv", "-switch", "500ns", "fig11"); fromScenario != fromFlag {
		t.Errorf("fig11 under a SwitchLatNs 500 scenario differs from -switch 500ns:\n%s",
			firstDiff([]byte(fromScenario), []byte(fromFlag)))
	}
	if fromScenario == runCLI(t, "-csv", "fig11") {
		t.Error("fig11 under a SwitchLatNs 500 scenario prints the default bytes")
	}
	load := []string{"-csv", "-n", "200", "-rate", "0.5", "loadsweep"}
	if runCLI(t, append([]string{"-switch", "500ns"}, load...)...) == runCLI(t, load...) {
		t.Error("-switch 500ns does not change loadsweep")
	}

	grid := campaign.Grid{Name: "switch", Seed: 3, Experiments: []campaign.Experiment{
		{Experiment: "fig4", Sizes: []int{64}},
		{Experiment: "fig4", Sizes: []int{64}, SwitchNs: 500},
	}}
	rep, err := runGrid(grid, "", dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cells := rep.Manifest.Cells; len(cells) != 2 || cells[0].ConfigHash == cells[1].ConfigHash {
		t.Errorf("campaign rows differing only in SwitchNs share a config hash: %+v", cells)
	}
}

// runCLI runs netdimm-sim with args and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("netdimm-sim %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// expectCLIError runs netdimm-sim with args and checks that it exits with
// status 1, names want on stderr and prints nothing to stdout.
func expectCLIError(t *testing.T, args []string, want string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("netdimm-sim %v: err = %v, want exit status 1", args, err)
	}
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("netdimm-sim %v: stderr %q does not contain %q", args, stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("netdimm-sim %v printed %q before failing", args, stdout.String())
	}
}

// TestHelpShowsDefaultGrids: -help renders the default loss, outage, rack
// and rank axes from the grids the sweeps use, so the two cannot drift.
func TestHelpShowsDefaultGrids(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-help")
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("netdimm-sim -help: %v\n%s", err, stderr.String())
	}
	join := func(n int, elem func(int) string) string {
		s := make([]string, n)
		for i := range s {
			s[i] = elem(i)
		}
		return "(default " + strings.Join(s, ",")
	}
	grids := map[string]string{
		"-loss": join(len(experiments.DefaultLossGrid), func(i int) string { return fmt.Sprint(experiments.DefaultLossGrid[i]) }),
		"-outage": join(len(experiments.DefaultOutageGrid), func(i int) string {
			return experiments.DefaultOutageGrid[i].Duration().String()
		}),
		"-racks": join(len(experiments.DefaultRackGrid), func(i int) string { return fmt.Sprint(experiments.DefaultRackGrid[i]) }),
		"-ranks": join(len(experiments.DefaultCollRankGrid), func(i int) string { return fmt.Sprint(experiments.DefaultCollRankGrid[i]) }),
	}
	help := stderr.String()
	for name, want := range grids {
		at := strings.Index(help, "  "+name+" ")
		if at < 0 {
			t.Fatalf("-help does not list %s:\n%s", name, help)
		}
		entry, _, _ := strings.Cut(help[at+len(name)+3:], "\n  -")
		if !strings.Contains(entry, want) {
			t.Errorf("-help entry for %s %q does not contain %q", name, entry, want)
		}
	}
}

// TestPacketsDefaultIsReplayDefault: the -n default is the library's
// default packets per cell, so `netdimm-sim headline` and a library call
// that leaves packets at 0 replay the same traces.
func TestPacketsDefaultIsReplayDefault(t *testing.T) {
	if got, want := flag.Lookup("n").DefValue, strconv.Itoa(experiments.DefaultPackets); got != want {
		t.Fatalf("-n defaults to %s, experiments.DefaultPackets is %s", got, want)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each write a non-empty
// profile and leave stdout as it is without them.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	got := runCLI(t, "-cpuprofile", cpu, "-memprofile", mem, "fig11")
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "fig11-table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout differs from fig11-table1.txt: %s", firstDiff([]byte(got), want))
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", p, err)
		}
	}
}
