package netdimm

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"netdimm/internal/campaign"
	"netdimm/internal/experiments"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// CampaignSchemas is the CSV contract registry of every experiment family
// a campaign grid can name: the exact header each family emits and the
// minimum data-row count a healthy cell produces. The campaign runner
// validates every cell CSV against it before declaring success.
func CampaignSchemas() map[string]campaign.Schema {
	return map[string]campaign.Schema{
		"fig4": {Header: []string{"size", "dnic_ns", "dnic_zcpy_ns", "inic_ns", "inic_zcpy_ns",
			"pcie_share", "pcie_share_zcpy"}, MinRows: 1},
		"fig11": {Header: []string{"size", "arch", "txCopy_ns", "rxCopy_ns", "txDMA_ns", "rxDMA_ns",
			"wire_ns", "ioReg_ns", "txFlush_ns", "rxInvalidate_ns", "total_ns"}, MinRows: 3},
		"fig12a": {Header: []string{"cluster", "switch_ns", "dnic_mean_ns", "inic_mean_ns",
			"netdimm_mean_ns", "norm_dnic", "norm_inic"}, MinRows: 3},
		"ablation": {Header: []string{"section", "variant", "latency_ns", "rate"}, MinRows: 4},
		"faultsweep": {Header: []string{"arch", "loss_rate", "mean_ns", "p50_ns", "p99_ns",
			"delivered", "failed", "retransmits", "frames_dropped", "frames_corrupted", "mem_retries"}, MinRows: 3},
		"loadsweep": {Header: []string{"arch", "offered_load", "mean_ns", "p50_ns", "p99_ns", "p999_ns",
			"delivered", "dropped", "egress_max_depth", "egress_queue_delay_ns", "rx_max_depth", "link_util"}, MinRows: 3},
		"racksweep": {Header: []string{"arch", "racks", "ecn", "offered_load", "mean_ns", "p50_ns", "p99_ns", "p999_ns",
			"delivered", "dropped", "marked", "cross_rack",
			"leaf_max_depth", "spine_max_depth", "rx_max_depth", "link_util"}, MinRows: 6},
		"failsweep": {Header: []string{"arch", "outage_ns", "delivered", "failed", "dropped",
			"outage_drops", "burst_drops", "rerouted", "retransmits", "recovered",
			"reroute_ns", "mean_recovery_ns", "during_offered", "during_delivered",
			"p99_before_ns", "p99_during_ns", "p99_after_ns", "p999_after_ns", "tail_inflation"}, MinRows: 3},
		"collsweep": {Header: []string{"arch", "op", "ranks", "payload_bytes", "steps",
			"completion_ns", "step_skew_ns", "bytes_on_wire", "frames", "delivered",
			"dropped", "marked", "link_util"}, MinRows: 3},
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
	schema := CampaignSchemas()[c.Experiment]

	switch c.Experiment {
	case "fig4":
		rows, err := RunFig4WithConfig(cfg, c.Sizes, switchLat, 1)
		if err != nil {
			return res, err
		}
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{fmt.Sprint(r.Size),
				fmt.Sprint(r.DNIC.Nanoseconds()), fmt.Sprint(r.DNICZcpy.Nanoseconds()),
				fmt.Sprint(r.INIC.Nanoseconds()), fmt.Sprint(r.INICZcpy.Nanoseconds()),
				fmt.Sprintf("%.4f", r.PCIeShare), fmt.Sprintf("%.4f", r.PCIeShareZcpy)})
		}
		res.CSV = stats.CSV(schema.Header, out)
		res.WantRows = lenOr(len(c.Sizes), len(experiments.PaperSizes))

	case "fig11":
		rows, ob, err := RunFig11Observed(cfg, c.Sizes, switchLat, 1)
		if err != nil {
			return res, err
		}
		var out [][]string
		emit := func(size int, arch string, b LatencyBreakdown) {
			out = append(out, []string{fmt.Sprint(size), arch,
				fmt.Sprint(b.TxCopy.Nanoseconds()), fmt.Sprint(b.RxCopy.Nanoseconds()),
				fmt.Sprint(b.TxDMA.Nanoseconds()), fmt.Sprint(b.RxDMA.Nanoseconds()),
				fmt.Sprint(b.Wire.Nanoseconds()), fmt.Sprint(b.IOReg.Nanoseconds()),
				fmt.Sprint(b.TxFlush.Nanoseconds()), fmt.Sprint(b.RxInvalidate.Nanoseconds()),
				fmt.Sprint(b.Total.Nanoseconds())})
		}
		for _, r := range rows {
			emit(r.Size, "dNIC", r.DNIC)
			emit(r.Size, "iNIC", r.INIC)
			emit(r.Size, "NetDIMM", r.NetDIMM)
		}
		res.CSV = stats.CSV(schema.Header, out)
		res.WantRows = 3 * lenOr(len(c.Sizes), len(experiments.PaperSizes))
		res.MetricsCSV = ob.MetricsCSV()
		res.TraceJSON = captureTrace(ob, c.Trace)

	case "fig12a":
		rows, err := RunFig12aWithConfig(cfg, c.Packets, c.Seed, 1)
		if err != nil {
			return res, err
		}
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{string(r.Cluster), fmt.Sprint(r.SwitchLatency.Nanoseconds()),
				fmt.Sprint(r.DNICMean.Nanoseconds()), fmt.Sprint(r.INICMean.Nanoseconds()),
				fmt.Sprint(r.NetDIMMMean.Nanoseconds()),
				fmt.Sprintf("%.4f", r.NormVsDNIC), fmt.Sprintf("%.4f", r.NormVsINIC)})
		}
		res.CSV = stats.CSV(schema.Header, out)
		res.WantRows = len(workload.Clusters) * len(experiments.PaperSwitchLatencies)

	case "ablation":
		rep, err := RunAblationsWithConfig(cfg, 1)
		if err != nil {
			return res, err
		}
		var out [][]string
		for _, r := range rep.Prefetch {
			out = append(out, []string{"prefetch", fmt.Sprintf("degree-%d", r.Degree),
				fmt.Sprint(r.MeanReadLat.Nanoseconds()), fmt.Sprintf("%.4f", r.HitRate)})
		}
		for _, r := range rep.Clone {
			out = append(out, []string{"clone", r.Strategy, fmt.Sprint(r.PerClone.Nanoseconds()), ""})
		}
		for _, r := range rep.Alloc {
			out = append(out, []string{"alloc", r.Strategy, fmt.Sprint(r.PerAlloc.Nanoseconds()),
				fmt.Sprintf("%.4f", r.FPMRate)})
		}
		for _, r := range rep.HeaderCache {
			out = append(out, []string{"headercache", r.Strategy, fmt.Sprint(r.HeaderRead.Nanoseconds()),
				fmt.Sprintf("%.4f", r.HitRate)})
		}
		res.CSV = stats.CSV(schema.Header, out)

	case "faultsweep":
		rows, _, ob, err := RunFaultSweepObserved(cfg, c.Rates, c.Packets, c.Seed, 1)
		if err != nil {
			return res, err
		}
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{r.Arch, fmt.Sprintf("%g", r.LossRate),
				fmt.Sprint(r.Mean.Nanoseconds()), fmt.Sprint(r.P50.Nanoseconds()), fmt.Sprint(r.P99.Nanoseconds()),
				fmt.Sprint(r.Delivered), fmt.Sprint(r.Failed),
				fmt.Sprint(r.Counters.Retransmits), fmt.Sprint(r.Counters.FramesDropped),
				fmt.Sprint(r.Counters.FramesCorrupted), fmt.Sprint(r.Counters.MemRetries)})
		}
		res.CSV = stats.CSV(schema.Header, out)
		res.WantRows = 3 * lenOr(len(c.Rates), 6)
		res.MetricsCSV = ob.MetricsCSV()
		res.TraceJSON = captureTrace(ob, c.Trace)

	case "loadsweep":
		rows, _, ob, err := RunLoadSweepObserved(cfg, c.Rates, c.Packets, c.Seed, 1)
		if err != nil {
			return res, err
		}
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{r.Arch, fmt.Sprintf("%g", r.OfferedLoad),
				fmt.Sprint(r.Mean.Nanoseconds()), fmt.Sprint(r.P50.Nanoseconds()),
				fmt.Sprint(r.P99.Nanoseconds()), fmt.Sprint(r.P999.Nanoseconds()),
				fmt.Sprint(r.Delivered), fmt.Sprint(r.Dropped),
				fmt.Sprint(r.EgressMaxDepth), fmt.Sprint(r.EgressQueueDelay.Nanoseconds()),
				fmt.Sprint(r.RxMaxDepth), fmt.Sprintf("%.4f", r.LinkUtilization)})
		}
		res.CSV = stats.CSV(schema.Header, out)
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
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{r.Arch, fmt.Sprint(r.Racks), ecnString(r.ECN), fmt.Sprintf("%g", r.OfferedLoad),
				fmt.Sprint(r.Mean.Nanoseconds()), fmt.Sprint(r.P50.Nanoseconds()),
				fmt.Sprint(r.P99.Nanoseconds()), fmt.Sprint(r.P999.Nanoseconds()),
				fmt.Sprint(r.Delivered), fmt.Sprint(r.Dropped),
				fmt.Sprint(r.Marked), fmt.Sprint(r.CrossRack),
				fmt.Sprint(r.LeafMaxDepth), fmt.Sprint(r.SpineMaxDepth),
				fmt.Sprint(r.RxMaxDepth), fmt.Sprintf("%.4f", r.LinkUtilization)})
		}
		res.CSV = stats.CSV(schema.Header, out)
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
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{r.Arch, fmt.Sprint(r.Outage.Nanoseconds()),
				fmt.Sprint(r.Delivered), fmt.Sprint(r.Failed), fmt.Sprint(r.Dropped),
				fmt.Sprint(r.OutageDrops), fmt.Sprint(r.BurstDrops),
				fmt.Sprint(r.Rerouted), fmt.Sprint(r.Retransmits), fmt.Sprint(r.Recovered),
				fmt.Sprint(r.TimeToReroute.Nanoseconds()), fmt.Sprint(r.MeanRecovery.Nanoseconds()),
				fmt.Sprint(r.DuringOffered), fmt.Sprint(r.DuringDelivered),
				fmt.Sprint(r.P99Before.Nanoseconds()), fmt.Sprint(r.P99During.Nanoseconds()),
				fmt.Sprint(r.P99After.Nanoseconds()), fmt.Sprint(r.P999After.Nanoseconds()),
				fmt.Sprintf("%.3f", r.TailInflation)})
		}
		res.CSV = stats.CSV(schema.Header, out)
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
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{r.Arch, r.Op, fmt.Sprint(r.Ranks),
				fmt.Sprint(r.PayloadBytes), fmt.Sprint(r.Steps),
				fmt.Sprint(r.Completion.Nanoseconds()), fmt.Sprint(r.StepSkew.Nanoseconds()),
				fmt.Sprint(r.BytesOnWire), fmt.Sprint(r.Frames), fmt.Sprint(r.Delivered),
				fmt.Sprint(r.Dropped), fmt.Sprint(r.Marked),
				fmt.Sprintf("%.4f", r.LinkUtilization)})
		}
		res.CSV = stats.CSV(schema.Header, out)
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

func ecnString(on bool) string {
	if on {
		return "on"
	}
	return "off"
}
