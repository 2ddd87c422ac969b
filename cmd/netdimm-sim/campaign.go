package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"netdimm"
	"netdimm/internal/campaign"
)

var (
	gridPath = flag.String("grid", "", "campaign grid JSON file (campaign; see scenarios/campaign-default.json)")
	outRoot  = flag.String("outdir", "campaigns", "directory campaign output directories are created under")
)

// runCampaign drives the campaign harness: load + validate the grid, run
// every cell through its family's run function, leave a timestamped output
// directory behind and print the grouped summary. The -parallel flag, when
// set, overrides the grid's parallelism; -n, -seed etc. do not leak into
// cells — the grid file is the single source of cell parameters, so a
// campaign is reproducible from the file alone.
func runCampaign() error {
	if *gridPath == "" {
		return fmt.Errorf("campaign: -grid FILE is required (try scenarios/campaign-default.json)")
	}
	if *asCSV || *traceOut != "" || *metrics {
		return fmt.Errorf("campaign: -csv, -trace and -metrics do not apply; every cell writes its CSV, and a grid row's Metrics and Trace arm the rest")
	}
	grid, err := loadGrid(*gridPath)
	if err != nil {
		return err
	}
	if *parallel != 0 {
		grid.Parallelism = *parallel
	}
	rep, err := runGrid(grid, *gridPath, *outRoot, os.Stderr)
	if rep != nil {
		fmt.Print(rep.Summary)
	}
	return err
}

// campaignSchemas is the registry a grid is validated against: every
// family the table gives a campaign schema.
func campaignSchemas() map[string]campaign.Schema {
	known := map[string]campaign.Schema{}
	for _, f := range families {
		if f.schema != nil {
			s := *f.schema
			s.Observed = f.observes
			known[f.name] = s
		}
	}
	return known
}

// loadGrid reads a campaign grid file and validates it against the family
// registry.
func loadGrid(path string) (campaign.Grid, error) {
	g, err := campaign.LoadGrid(path)
	if err != nil {
		return campaign.Grid{}, err
	}
	if err := g.Validate(campaignSchemas()); err != nil {
		return campaign.Grid{}, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// runGrid executes a campaign grid to completion: the produced CSVs are
// schema-validated, and a timestamped directory (per-cell CSVs, optional
// metrics CSVs and traces, manifest with host/git/seed/config-hash, run
// log, grouped summary tables) is written under outRoot. gridPath, when
// non-empty, is fingerprinted into the manifest; logw mirrors the run log
// (nil discards it). Cell failures are collected, not fatal mid-run: the
// report is always written, and the returned error summarizes any
// failures.
func runGrid(grid campaign.Grid, gridPath, outRoot string, logw io.Writer) (*campaign.RunReport, error) {
	schemas := campaignSchemas()
	if err := grid.Validate(schemas); err != nil {
		return nil, err
	}
	r := &campaign.Runner{
		Grid:        grid,
		OutRoot:     outRoot,
		Schemas:     schemas,
		Exec:        runCell,
		GitRevision: campaign.GitRevision("."),
		GridPath:    gridPath,
		Log:         logw,
	}
	return r.Run()
}

// runCell executes one planned campaign cell through its family's run
// function. The inner experiment always runs sequentially (parallelism 1):
// the campaign fans out across cells, and nesting pools would oversubscribe
// without changing any result.
func runCell(c campaign.Cell) (campaign.Result, error) {
	e := c.Row
	cfg, err := netdimm.LoadScenario(e.Scenario)
	if err != nil {
		return campaign.Result{}, err
	}
	if e.Hosts > 0 {
		cfg.Load.Hosts = e.Hosts
	}
	cfg.Obs.Metrics = cfg.Obs.Metrics || e.Metrics
	cfg.Obs.Trace = cfg.Obs.Trace || e.Trace
	res := campaign.Result{ConfigHash: configHash(cfg)}
	f, ok := lookup(e.Experiment)
	if !ok || f.schema == nil {
		return res, fmt.Errorf("unknown experiment family %q", e.Experiment)
	}
	switchLat := 100 * time.Nanosecond
	if e.SwitchNs > 0 {
		switchLat = time.Duration(e.SwitchNs) * time.Nanosecond
	}
	out, err := f.run(cfg, axes{packets: e.Packets, seed: c.Seed, parallel: 1, switchLat: switchLat,
		sizes: e.Sizes, loss: e.Rates, loads: e.Rates, racks: e.Racks, outages: c.Outages,
		ranks: e.Ranks, ops: e.Ops, payload: e.Payload})
	if err != nil {
		return res, err
	}
	res.CSV, res.WantRows = out.csv, out.rows
	res.MetricsCSV = out.ob.MetricsCSV()
	if e.Trace { // only a trace-armed cell writes a trace file
		var sb strings.Builder
		if err := out.ob.WriteTrace(&sb); err == nil {
			res.TraceJSON = sb.String()
		}
	}
	return res, nil
}

// configHash fingerprints a resolved configuration for the manifest: two
// cells with equal hashes simulated the same system.
func configHash(cfg netdimm.Config) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	return campaign.SHA256Hex(data)
}
