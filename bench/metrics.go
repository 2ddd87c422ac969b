package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef is one reported metric. BENCHMARK.json lists the same
// definitions; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are measured with tracing off, one sample per repeat
// pair, and reported as the median over a run's pairs. Bound is the share
// of the baseline median by which a metric may get worse before a change
// counts as a regression.
var endToEndMetrics = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ns_per_pkt", Unit: "ns", Better: "lower", Bound: 0.24},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02},
}

// perLayerMetrics are the traced pass's metrics that every workload
// reports. The pass also reports workload-specific ones (see
// workloadLayerMetrics), which appear in the text report and -out file.
var perLayerMetrics = []metricDef{
	{Name: "sim.events_per_pkt", Unit: "count", Better: "lower"},
	{Name: "sim.peak_pending", Unit: "count", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.self_frac", Unit: "ratio", Better: "lower"},
	{Name: "fabric.hops_per_pkt", Unit: "count", Better: "lower"},
	{Name: "fabric.drop_frac", Unit: "ratio", Better: "lower"},
	{Name: "fabric.self_frac", Unit: "ratio", Better: "lower"},
	{Name: "driver.tx_ns.dNIC", Unit: "ns", Better: "lower"},
	{Name: "driver.tx_ns.iNIC", Unit: "ns", Better: "lower"},
	{Name: "driver.tx_ns.NetDIMM", Unit: "ns", Better: "lower"},
	{Name: "driver.rx_ns.dNIC", Unit: "ns", Better: "lower"},
	{Name: "driver.rx_ns.iNIC", Unit: "ns", Better: "lower"},
	{Name: "driver.rx_ns.NetDIMM", Unit: "ns", Better: "lower"},
	{Name: "driver.new_ns.dNIC", Unit: "ns", Better: "lower"},
	{Name: "driver.new_ns.iNIC", Unit: "ns", Better: "lower"},
	{Name: "driver.new_ns.NetDIMM", Unit: "ns", Better: "lower"},
	{Name: "driver.self_frac", Unit: "ratio", Better: "lower"},
	{Name: "device.events_per_tx", Unit: "count", Better: "lower"},
	{Name: "device.events_per_rx", Unit: "count", Better: "lower"},
	{Name: "kalloc.fast_frac", Unit: "ratio", Better: "higher"},
	{Name: "kalloc.new_cache_ns", Unit: "ns", Better: "lower"},
	{Name: "kalloc.get_ns.fresh", Unit: "ns", Better: "lower"},
	{Name: "kalloc.get_ns.drained", Unit: "ns", Better: "lower"},
	{Name: "workload.self_frac", Unit: "ratio", Better: "lower"},
	{Name: "stats.self_frac", Unit: "ratio", Better: "lower"},
	{Name: "collective.self_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.mallocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "runtime.setup_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// workloadLayerMetrics are per-layer metrics that exist only on workloads
// that exercise the layer (a latency cell has no topology, an open-loop
// cell no collective).
var workloadLayerMetrics = []metricDef{
	{Name: "sim.run_self_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "fabric.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.dest_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.generate_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "stats.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.percentile_ns", Unit: "ns", Better: "lower"},
	{Name: "collective.deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "collective.verify_ns", Unit: "ns", Better: "lower"},
}

// reconLayers are the layers the reconciliation attributes host time to.
// The device model, kalloc and the memory models run inside driver calls
// and are counted in driver.
var reconLayers = []string{"sim", "fabric", "driver", "workload", "stats", "collective", "spec"}

// summary is one end-to-end metric over a workload's repeat pairs.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(samples []float64) summary {
	q1, med, q3 := quartiles(samples)
	return summary{Median: med, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

// endToEnd computes every end-to-end metric from the repeat pairs. Times
// are calibrated per pair (see calibrate.go): each pair's samples are
// scaled by calRefS over the mean of the kernel runs on either side of it,
// which follows the host's speed as it drifts during a run. raw holds the
// uncalibrated times, the kernel's own and the peak RSS, in rawUnits.
func endToEnd(pairs []pair) (calibrated, raw map[string]summary) {
	var wall, setup, perPkt, alloc, rss, rawWall, rawSetup, rawPerPkt, cal []float64
	for _, p := range pairs {
		scale := calRefS / p.calS()
		perPktS := (p.Full.WallS - p.Twin.WallS) * 1e9 / float64(p.Full.Call.Offered-p.Twin.Call.Offered)
		wall = append(wall, p.Full.WallS*scale)
		setup = append(setup, p.Twin.WallS*scale)
		perPkt = append(perPkt, perPktS*scale)
		alloc = append(alloc, float64(p.Full.AllocBytes)/1e6)
		rss = append(rss, float64(p.Full.PeakRSSKB)*1024/1e6)
		rawWall = append(rawWall, p.Full.WallS)
		rawSetup = append(rawSetup, p.Twin.WallS)
		rawPerPkt = append(rawPerPkt, perPktS)
		cal = append(cal, p.calS())
	}
	calibrated = map[string]summary{
		"wall_s":     summarize(wall),
		"setup_s":    summarize(setup),
		"ns_per_pkt": summarize(perPkt),
		"alloc_mb":   summarize(alloc),
	}
	raw = map[string]summary{
		"wall_s":      summarize(rawWall),
		"setup_s":     summarize(rawSetup),
		"ns_per_pkt":  summarize(rawPerPkt),
		"calibrate_s": summarize(cal),
		"peak_rss_mb": summarize(rss),
	}
	return calibrated, raw
}

// rawUnits are the units of endToEnd's raw summaries.
var rawUnits = map[string]string{"wall_s": "s", "setup_s": "s", "ns_per_pkt": "ns", "calibrate_s": "s", "peak_rss_mb": "MB"}

// layerTimes splits the traced pass's host time over reconLayers (ns,
// summed over the pass). Inside Engine.Run the split is derived: every
// fired event costs the replayed sim.event_ns at its cell's peak depth,
// and the rest of the run's self time is fabric work (port dequeues and
// switch hops, the only engine callbacks the replica does not own).
func layerTimes(t *traceResult) map[string]float64 {
	out := make(map[string]float64, len(reconLayers))
	for name, s := range t.Spans {
		if name != "sim.run" {
			out[layerOf(name)] += float64(s.SelfNs)
		}
	}
	events, run := 0.0, 0.0
	for _, e := range t.Engines {
		events += float64(e.Events) * e.EventNs
		run += float64(e.RunSelfNs)
	}
	out["sim"] += events
	out["fabric"] += run - events
	for name := range out {
		if !slices.Contains(reconLayers, name) {
			delete(out, name)
		}
	}
	return out
}

// perLayer computes the traced pass's metrics: every perLayerMetrics
// entry, plus the workloadLayerMetrics the workload exercises. pairs are
// the untraced repeats of the same run; runtime counters are their
// medians.
func perLayer(t *traceResult, pairs []pair) map[string]float64 {
	offered := float64(pairs[0].Full.Call.Offered)
	m := map[string]float64{}
	p50 := func(metric, span string) {
		if s, ok := t.Spans[span]; ok {
			m[metric] = s.P50Ns
		}
	}
	perCall := func(metric, span string) {
		if s, ok := t.Spans[span]; ok {
			m[metric] = float64(s.TotalNs) / float64(s.Count)
		}
	}

	var events, hops uint64
	var simNs, runSelf float64
	peak := 0
	for _, e := range t.Engines {
		events += e.Events
		hops += e.Hops
		simNs += float64(e.Events) * e.EventNs
		runSelf += float64(e.RunSelfNs)
		if e.PeakPending > peak {
			peak = e.PeakPending
		}
	}
	m["sim.events_per_pkt"] = float64(events) / offered
	m["sim.peak_pending"] = float64(peak)
	m["sim.event_ns"] = t.IdleEventNs
	if events > 0 {
		m["sim.event_ns"] = simNs / float64(events)
		m["sim.run_self_ns_per_pkt"] = runSelf / offered
	}
	m["fabric.hops_per_pkt"] = float64(hops) / offered
	if hops > 0 {
		m["fabric.hop_ns"] = (runSelf - simNs) / float64(hops)
	}
	m["fabric.drop_frac"] = 0
	if t.Injected > 0 {
		m["fabric.drop_frac"] = float64(t.Dropped) / float64(t.Injected)
	}
	p50("fabric.inject_ns", "fabric.inject")
	for _, arch := range archs {
		p50("driver.tx_ns."+arch, "driver.tx."+arch)
		p50("driver.rx_ns."+arch, "driver.rx."+arch)
		p50("driver.new_ns."+arch, "driver.new."+arch)
	}
	for side, name := range []string{"device.events_per_tx", "device.events_per_rx"} {
		if t.DevCalls[side] > 0 {
			m[name] = float64(t.DevEvents[side]) / float64(t.DevCalls[side])
		}
	}
	if n := t.AllocFast + t.AllocSlow; n > 0 {
		m["kalloc.fast_frac"] = float64(t.AllocFast) / float64(n)
	}
	m["kalloc.new_cache_ns"] = t.Kalloc.NewCacheNs
	m["kalloc.get_ns.fresh"] = t.Kalloc.FreshNs
	m["kalloc.get_ns.drained"] = t.Kalloc.DrainedNs
	p50("workload.next_ns", "workload.next")
	p50("workload.dest_ns", "workload.dest")
	if s, ok := t.Spans["workload.generate"]; ok && t.Generated > 0 {
		m["workload.generate_ns_per_pkt"] = float64(s.TotalNs) / float64(t.Generated)
	}
	p50("stats.observe_ns", "stats.observe")
	perCall("stats.percentile_ns", "stats.percentile")
	p50("collective.deliver_ns", "collective.deliver")
	perCall("collective.verify_ns", "collective.verify")

	var gc, pause, mallocs, setupAlloc []float64
	// Peak RSS is a floor: whether a GC cycle lands between two cells'
	// worth of NetDIMM devices decides whether one repeat peaks up to 40%
	// higher than another, so the lowest peak is the repeatable number.
	rss := math.Inf(1)
	for _, p := range pairs {
		rss = math.Min(rss, float64(p.Full.PeakRSSKB)*1024/1e6)
		gc = append(gc, float64(p.Full.NumGC))
		pause = append(pause, float64(p.Full.PauseNs)/1e6)
		mallocs = append(mallocs, float64(p.Full.Mallocs)/offered)
		setupAlloc = append(setupAlloc, float64(p.Twin.AllocBytes)/1e6)
	}
	m["runtime.gc_cycles"] = median(gc)
	m["runtime.gc_pause_ms"] = median(pause)
	m["runtime.mallocs_per_pkt"] = median(mallocs)
	m["runtime.setup_alloc_mb"] = median(setupAlloc)
	m["runtime.peak_rss_mb"] = rss

	wall := float64(t.WallNs)
	layers := layerTimes(t)
	attributed := 0.0
	for _, ns := range layers {
		attributed += ns
	}
	for _, layer := range []string{"sim", "fabric", "driver", "workload", "stats", "collective"} {
		m[layer+".self_frac"] = layers[layer] / wall
	}
	m["trace.unattributed_frac"] = 1 - attributed/wall
	var untraced []float64
	for _, p := range pairs {
		untraced = append(untraced, p.Full.WallS*1e9)
	}
	m["trace.overhead_frac"] = wall/median(untraced) - 1
	return m
}

// reconRow is one workload's reconciliation: each layer's self time per
// offered packet, their sum, the traced wall time per packet and the
// unattributed remainder.
type reconRow struct {
	LayerNsPerPkt map[string]float64 `json:"layer_ns_per_pkt"`
	SumNsPerPkt   float64            `json:"sum_ns_per_pkt"`
	WallNsPerPkt  float64            `json:"traced_wall_ns_per_pkt"`
	Unattributed  float64            `json:"unattributed_ns_per_pkt"`
}

func reconcile(t *traceResult, offered int) reconRow {
	r := reconRow{LayerNsPerPkt: map[string]float64{}, WallNsPerPkt: float64(t.WallNs) / float64(offered)}
	for layer, ns := range layerTimes(t) {
		r.LayerNsPerPkt[layer] = ns / float64(offered)
		r.SumNsPerPkt += ns / float64(offered)
	}
	r.Unattributed = r.WallNsPerPkt - r.SumNsPerPkt
	return r
}

// median returns the middle value (mean of the middle two for an even
// count) of samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of
// samples, with the quartiles computed the way Python's
// statistics.quantiles(samples, n=4) computes them (its default
// "exclusive" method), so the spreads reported here are the ones a reader
// recomputes from the samples.
func quartiles(samples []float64) (q1, med, q3 float64) {
	med = median(samples)
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// spread is the quartile distance of samples as a share of their median.
func spread(samples []float64) float64 {
	q1, med, q3 := quartiles(samples)
	return (q3 - q1) / math.Abs(med)
}

// metricUnit returns the unit of a named metric.
func metricUnit(name string) string {
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics, workloadLayerMetrics} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
