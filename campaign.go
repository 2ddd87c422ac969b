package netdimm

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"netdimm/internal/campaign"
	"netdimm/internal/experiments"
	"netdimm/internal/workload"
)

// CampaignSchemas is the CSV contract registry of every experiment family
// a campaign grid can name: the exact header each family emits (taken from
// the family's CSV encoder) and the minimum data-row count a healthy cell
// produces. The campaign runner validates every cell CSV against it before
// declaring success.
func CampaignSchemas() map[string]campaign.Schema {
	return map[string]campaign.Schema{
		"fig4":       {Header: fig4Header, MinRows: 1},
		"fig11":      {Header: fig11Header, MinRows: 3},
		"fig12a":     {Header: fig12aHeader, MinRows: 3},
		"ablation":   {Header: ablationHeader, MinRows: 4},
		"faultsweep": {Header: faultSweepHeader, MinRows: 3},
		"loadsweep":  {Header: loadSweepHeader, MinRows: 3},
		"racksweep":  {Header: rackSweepHeader, MinRows: 6},
		"failsweep":  {Header: failSweepHeader, MinRows: 3},
		"collsweep":  {Header: collSweepHeader, MinRows: 3},
	}
}

// LoadCampaignGrid reads and validates a campaign grid file against the
// family registry.
func LoadCampaignGrid(path string) (campaign.Grid, error) {
	g, err := campaign.LoadGrid(path)
	if err != nil {
		return campaign.Grid{}, err
	}
	if err := g.Validate(CampaignSchemas()); err != nil {
		return campaign.Grid{}, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// RunCampaign executes a validated campaign grid to completion: every cell
// runs through the Run*WithConfig/*Observed facade, the produced CSVs are
// schema-validated, and a timestamped directory (per-cell CSVs, optional
// metrics CSVs, manifest with host/git/seed/config-hash, run log, grouped
// summary tables) is written under outRoot. gridPath, when non-empty, is
// fingerprinted into the manifest; logw mirrors the run log (nil discards
// it). Cell failures are collected, not fatal mid-run: the report is
// always written, and the returned error summarizes any failures.
func RunCampaign(grid campaign.Grid, gridPath, outRoot string, logw io.Writer) (*campaign.RunReport, error) {
	if err := grid.Validate(CampaignSchemas()); err != nil {
		return nil, err
	}
	r := &campaign.Runner{
		Grid:        grid,
		OutRoot:     outRoot,
		Schemas:     CampaignSchemas(),
		Exec:        runCampaignCell,
		GitRevision: campaign.GitRevision("."),
		GridPath:    gridPath,
		Log:         logw,
	}
	return r.Run()
}

// runCampaignCell executes one planned campaign cell through the public
// facade. The inner experiment always runs sequentially (parallelism 1):
// the campaign fans out across cells, and nesting pools would oversubscribe
// without changing any result.
func runCampaignCell(c campaign.Cell) (campaign.Result, error) {
	cfg, err := LoadScenario(c.Scenario)
	if err != nil {
		return campaign.Result{}, err
	}
	if c.Hosts > 0 {
		cfg.Load.Hosts = c.Hosts
	}
	if c.Metrics {
		cfg.Obs.Metrics = true
	}
	if c.Trace {
		cfg.Obs.Trace = true
	}
	res := campaign.Result{ConfigHash: configHash(cfg)}
	switchLat := 100 * time.Nanosecond
	if c.SwitchNs > 0 {
		switchLat = time.Duration(c.SwitchNs) * time.Nanosecond
	}

	switch c.Experiment {
	case "fig4":
		rows, err := RunFig4WithConfig(cfg, c.Sizes, switchLat, 1)
		if err != nil {
			return res, err
		}
		res.CSV = Fig4CSV(rows)
		res.WantRows = lenOr(len(c.Sizes), len(experiments.PaperSizes))

	case "fig11":
		rows, ob, err := RunFig11Observed(cfg, c.Sizes, switchLat, 1)
		if err != nil {
			return res, err
		}
		res.CSV = Fig11CSV(rows)
		res.WantRows = 3 * lenOr(len(c.Sizes), len(experiments.PaperSizes))
		res.MetricsCSV = ob.MetricsCSV()
		res.TraceJSON = captureTrace(ob, c.Trace)

	case "fig12a":
		rows, err := RunFig12aWithConfig(cfg, c.Packets, c.Seed, 1)
		if err != nil {
			return res, err
		}
		res.CSV = Fig12aCSV(rows)
		res.WantRows = len(workload.Clusters) * len(experiments.PaperSwitchLatencies)

	case "ablation":
		rep, err := RunAblationsWithConfig(cfg, 1)
		if err != nil {
			return res, err
		}
		res.CSV = ablationCSV(rep)

	case "faultsweep":
		rows, _, ob, err := RunFaultSweepObserved(cfg, c.Rates, c.Packets, c.Seed, 1)
		if err != nil {
			return res, err
		}
		res.CSV = FaultSweepCSV(rows)
		res.WantRows = 3 * lenOr(len(c.Rates), 6)
		res.MetricsCSV = ob.MetricsCSV()
		res.TraceJSON = captureTrace(ob, c.Trace)

	case "loadsweep":
		rows, _, ob, err := RunLoadSweepObserved(cfg, c.Rates, c.Packets, c.Seed, 1)
		if err != nil {
			return res, err
		}
		res.CSV = LoadSweepCSV(rows)
		if len(c.Rates) > 0 {
			res.WantRows = 3 * len(c.Rates)
		}
		res.MetricsCSV = ob.MetricsCSV()
		res.TraceJSON = captureTrace(ob, c.Trace)

	case "racksweep":
		rows, _, ob, err := RunRackSweepObserved(cfg, c.Racks, c.Rates, c.Packets, c.Seed, 1)
		if err != nil {
			return res, err
		}
		res.CSV = RackSweepCSV(rows)
		if len(c.Racks) > 0 && len(c.Rates) > 0 {
			res.WantRows = 3 * 2 * len(c.Racks) * len(c.Rates)
		}
		res.MetricsCSV = ob.MetricsCSV()
		res.TraceJSON = captureTrace(ob, c.Trace)

	case "failsweep":
		rows, ob, err := RunFailSweepObserved(cfg, c.Outages, c.Packets, c.Seed, 1)
		if err != nil {
			return res, err
		}
		res.CSV = FailSweepCSV(rows)
		res.WantRows = 3 * lenOr(len(c.Outages), 4)
		res.MetricsCSV = ob.MetricsCSV()
		res.TraceJSON = captureTrace(ob, c.Trace)

	case "collsweep":
		if c.Payload > 0 {
			cfg.Collective.PayloadBytes = c.Payload
		}
		rows, ob, err := RunCollSweepObserved(cfg, c.Ranks, c.Ops, c.Seed, 1)
		if err != nil {
			return res, err
		}
		res.CSV = CollSweepCSV(rows)
		if len(c.Ranks) > 0 && len(c.Ops) > 0 {
			res.WantRows = 3 * len(c.Ranks) * len(c.Ops)
		}
		res.MetricsCSV = ob.MetricsCSV()
		res.TraceJSON = captureTrace(ob, c.Trace)

	default:
		return res, fmt.Errorf("unknown experiment family %q", c.Experiment)
	}
	return res, nil
}

// configHash fingerprints a resolved configuration for the manifest: two
// cells with equal hashes simulated the same system.
func configHash(cfg Config) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	return campaign.SHA256Hex(data)
}

// captureTrace renders an observation's Chrome trace-event JSON when the
// cell armed tracing ("" otherwise, so the runner writes no trace file).
func captureTrace(ob *Observation, armed bool) string {
	if !armed {
		return ""
	}
	var sb strings.Builder
	if err := ob.WriteTrace(&sb); err != nil {
		return ""
	}
	return sb.String()
}

// lenOr returns n, or the family default when the axis was left empty.
func lenOr(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}
