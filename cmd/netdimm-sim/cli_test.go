package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), cliEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("netdimm-sim %v: err = %v, want exit status 1", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("netdimm-sim %v: stderr %q does not contain %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("netdimm-sim %v printed %q before failing", tc.args, stdout.String())
		}
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Errorf("a rejected -trace run left a trace file (stat: %v)", err)
	}
}
