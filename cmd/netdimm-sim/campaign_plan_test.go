package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// plannedCell is the golden-pinned slice of a planned cell: the identity
// and seed, not the axes (those live in the grid file itself).
type plannedCell struct {
	Name       string `json:"name"`
	Experiment string `json:"experiment"`
	Scenario   string `json:"scenario,omitempty"`
	Repeat     int    `json:"repeat"`
	Seed       uint64 `json:"seed"`
}

// TestCampaignDefaultPlanGolden pins the plan of the checked-in default
// grid: cell list and derived seeds. The seed-derivation formula is part of
// the reproducibility contract — a change here invalidates every published
// campaign manifest, so it must be deliberate (regenerate with -update).
func TestCampaignDefaultPlanGolden(t *testing.T) {
	grid, err := loadGrid(filepath.Join("..", "..", "scenarios", "campaign-default.json"))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := grid.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var plan []plannedCell
	for _, c := range cells {
		plan = append(plan, plannedCell{
			Name: c.Name, Experiment: c.Row.Experiment, Scenario: c.Row.Scenario,
			Repeat: c.Repeat, Seed: c.Seed,
		})
	}
	got, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "golden", "campaign-default-plan.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("default campaign plan drifted from golden %s (regenerate with -update if deliberate)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestCampaignDefaultGridDigests runs the checked-in default grid through
// the CLI at -parallel 1 and 2 and pins the SHA-256 of every file under
// the run's csv/ and metrics/ trees (regenerate with -update). The
// manifest, log and summary record wall times and are not pinned.
func TestCampaignDefaultGridDigests(t *testing.T) {
	golden := filepath.Join("testdata", "golden", "campaign-default-digests.txt")
	for _, par := range []string{"1", "2"} {
		out := t.TempDir()
		cmd := exec.Command(os.Args[0], "campaign", "-grid", filepath.Join("..", "..", "scenarios", "campaign-default.json"),
			"-outdir", out, "-parallel", par)
		cmd.Env = append(os.Environ(), cliEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("campaign -parallel %s: %v\n%s", par, err, stderr.String())
		}
		runs, err := filepath.Glob(filepath.Join(out, "*"))
		if err != nil || len(runs) != 1 {
			t.Fatalf("campaign -parallel %s left %d output directories, want 1 (%v)", par, len(runs), err)
		}
		var got []byte
		for _, sub := range []string{"csv", "metrics"} {
			files, err := filepath.Glob(filepath.Join(runs[0], sub, "*"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				got = fmt.Appendf(got, "%x  %s/%s\n", sha256.Sum256(data), sub, filepath.Base(f))
			}
		}
		if *updateGolden && par == "1" {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("default campaign at -parallel %s drifted from %s (regenerate with -update if deliberate)\n%s",
				par, golden, firstDiff(got, want))
		}
	}
}
