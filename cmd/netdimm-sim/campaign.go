package main

import (
	"flag"
	"fmt"
	"os"

	"netdimm"
)

var (
	gridPath = flag.String("grid", "", "campaign grid JSON file (campaign; see scenarios/campaign-default.json)")
	outRoot  = flag.String("outdir", "campaigns", "directory campaign output directories are created under")
)

// runCampaign drives the campaign harness: load + validate the grid, run
// every cell through the experiment facade, leave a timestamped output
// directory behind and print the grouped summary. The -parallel flag, when
// set, overrides the grid's parallelism; -n, -seed etc. do not leak into
// cells — the grid file is the single source of cell parameters, so a
// campaign is reproducible from the file alone.
func runCampaign(netdimm.Config) error {
	if *gridPath == "" {
		return fmt.Errorf("campaign: -grid FILE is required (try scenarios/campaign-default.json)")
	}
	grid, err := netdimm.LoadCampaignGrid(*gridPath)
	if err != nil {
		return err
	}
	if *parallel != 0 {
		grid.Parallelism = *parallel
	}
	rep, err := netdimm.RunCampaign(grid, *gridPath, *outRoot, os.Stderr)
	if rep != nil {
		fmt.Print(rep.Summary)
	}
	return err
}
