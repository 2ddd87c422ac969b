package experiments

import (
	"fmt"

	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/fault"
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// The failure sweep measures what the load and rack sweeps assume away:
// how each architecture rides out a fabric that loses capacity mid-run. A
// scheduled spine outage takes one of the clos's two spines down for a
// window [start, start+duration); ECMP consults the fabric health view,
// so flows hashed onto the dead spine fail over to the survivor the
// moment the window opens, while frames already in flight toward it are
// eaten and recovered by each sender's ack-timeout ARQ. The axes are
// architecture × outage duration on a fixed 2-spine/4-leaf clos at a
// fixed offered load; every row reports the failover record (rerouted
// flows, outage drops, time-to-reroute), the recovery record
// (retransmits, packets recovered, mean recovery time), and the latency
// tail split by when the packet was born — before, during or after the
// window — so post-recovery tail inflation is read directly off the row.

// DefaultOutageGrid is the default outage-duration axis. Zero is the
// baseline cell every other duration is compared against.
var DefaultOutageGrid = []sim.Time{0, 5 * sim.Microsecond, 20 * sim.Microsecond, 60 * sim.Microsecond}

// DefaultFailHosts is the default host count: the 2×4 clos scenario's 32,
// eight per leaf.
const DefaultFailHosts = 32

// Default clos shape when the spec's Fabric block is zero: the 2-spine ×
// 4-leaf clos (scenarios/clos-2x4.json), the smallest fabric where a
// spine outage halves — rather than removes — the cross-rack capacity.
const (
	defaultFailLeaves = 4
	defaultFailSpines = 2
)

// defaultFailRetryBase is the ARQ retransmit base when the spec's Fault
// block leaves RetryBaseNs zero: the fault plane's 1µs link-level default
// would fire well inside a loaded clos round trip and flood the fabric
// with spurious copies, so the sweep sizes the timer above the loaded
// end-to-end tail instead.
const defaultFailRetryBase = 30 * sim.Microsecond

// FailSweepConfig parameterises one failure sweep; traffic shape and
// buffering come from the specification's Load block, the
// clos shape from its Fabric block, and any background failure schedule
// (extra outages, burst loss) from its Fault.Failure block.
type FailSweepConfig struct {
	// Packets is the total arrival count per cell, split across all hosts
	// (default 2400 — 75 per host at the default 32, a makespan several
	// times the longest default outage).
	Packets int
	// EventBudget bounds each cell's engine via the watchdog (default
	// 8,000,000).
	EventBudget uint64
	// Seed perturbs every host's arrival and destination streams.
	Seed uint64
	// Load is each host's offered fraction of its own line rate (default
	// 0.08 — busy enough that queues exist, below every architecture's
	// saturation knee so tail inflation is attributable to the outage,
	// and light enough that the loaded tail sits well under the
	// retransmit timer, keeping the baseline free of spurious
	// retransmissions).
	Load float64
	// OutageStart is when the swept outage window opens (default 20µs,
	// past the cold-start transient).
	OutageStart sim.Time
	// Spine is the spine the swept outage takes down (default 0).
	Spine int
}

// DefaultFailSweepConfig returns the sweep defaults.
func DefaultFailSweepConfig() FailSweepConfig {
	return FailSweepConfig{
		Packets:     2400,
		EventBudget: 8_000_000,
		Load:        0.08,
		OutageStart: 20 * sim.Microsecond,
	}
}

func (c FailSweepConfig) withDefaults() FailSweepConfig {
	def := DefaultFailSweepConfig()
	if c.Packets <= 0 {
		c.Packets = def.Packets
	}
	if c.EventBudget == 0 {
		c.EventBudget = def.EventBudget
	}
	if c.Load == 0 {
		c.Load = def.Load
	}
	if c.OutageStart == 0 {
		c.OutageStart = def.OutageStart
	}
	return c
}

// FailRow is one (architecture, outage duration) cell of the failure
// sweep. Latency percentiles are split by the packet's birth instant
// relative to the outage window; the failover and recovery tallies
// describe how the cell absorbed the outage.
type FailRow struct {
	Arch string
	// Outage is the swept spine-down window length; 0 is the baseline.
	Outage sim.Time
	// Delivered counts packets that completed end to end (duplicates from
	// spurious retransmits are counted once); Failed counts packets
	// abandoned after the retry cap (always 0 with unlimited retries).
	Delivered int
	Failed    int
	// DuringOffered / DuringDelivered count packets born inside the
	// outage window and how many of them still delivered — the
	// delivered-during-outage fraction.
	DuringOffered   int
	DuringDelivered int
	// Dropped counts frames lost anywhere before recovery: queue tail
	// drops, down-element (outage) drops, burst losses and downed-uplink
	// refusals.
	Dropped int
	// OutageDrops counts frames eaten by the down spine (in-flight frames
	// included); BurstDrops frames lost to a scheduled Gilbert–Elliott
	// process; Rerouted frames ECMP steered off their primary spine;
	// Degraded frames forced onto the single-path fallback.
	OutageDrops uint64
	BurstDrops  uint64
	Rerouted    uint64
	Degraded    uint64
	// Retransmits counts ARQ retransmissions across all hosts; Recovered
	// counts packets that delivered only through a retransmitted frame.
	Retransmits uint64
	Recovered   int
	// TimeToReroute is the delay from outage start to the first failover
	// routing decision, or -1 when no frame was rerouted (the baseline).
	TimeToReroute sim.Time
	// MeanRecovery is the mean end-to-end latency of Recovered packets —
	// the mean time-to-recover a lost frame, dominated by the retransmit
	// timer.
	MeanRecovery sim.Time
	// Percentiles of end-to-end latency by delivery instant relative to
	// the outage window: Before is the clean pre-outage steady state,
	// During covers completions while the spine is down (failover detours
	// and in-window recoveries), After everything past the window —
	// including recoveries of frames the outage ate near its end. Each is
	// zero when its window saw no deliveries.
	P99Before  sim.Time
	P999Before sim.Time
	P99During  sim.Time
	P999During sim.Time
	P99After   sim.Time
	P999After  sim.Time
	// TailInflation is P99After / P99Before — the post-recovery tail
	// relative to the same cell's pre-outage tail (compare against the
	// baseline cell's value to cancel warm-up drift).
	TailInflation float64
	// Hist holds the cell's full latency sample set.
	Hist *stats.Histogram
}

// FailSweep runs the failure sweep: for every (architecture, outage
// duration) cell, the spec's hosts (default 32 on a 2-spine/4-leaf clos)
// exchange cluster-mix traffic at a fixed offered load while spine
// cfg.Spine is down for [cfg.OutageStart, cfg.OutageStart+duration), and
// every sender recovers lost frames through the NIC's ack-timeout ARQ. A
// nil durations axis uses DefaultOutageGrid; duration 0 is the baseline.
//
// Cells are deterministic: each builds its own engine, fabric, health
// schedule and streams from per-cell seeds, so results are identical
// sequentially and in parallel.
func FailSweep(sp spec.Spec, outages []sim.Time, cfg FailSweepConfig, parallelism int) ([]FailRow, error) {
	rows, _, err := FailSweepObserved(sp, outages, cfg, parallelism, obs.Spec{})
	return rows, err
}

// FailSweepObserved is FailSweep with the observability plane: when ospec
// enables collection, each cell gets a Cell labelled
// "failsweep/<arch>/outage=<dur>" with delivery, drop, reroute and
// retransmit counters, the merged fault-counter block and engine probes.
// A zero ospec yields a nil observer and the exact FailSweep behaviour.
func FailSweepObserved(sp spec.Spec, outages []sim.Time, cfg FailSweepConfig, parallelism int, ospec obs.Spec) ([]FailRow, *obs.Observer, error) {
	cfg = cfg.withDefaults()
	if len(outages) == 0 {
		outages = DefaultOutageGrid
	}
	for _, d := range outages {
		if d < 0 {
			return nil, nil, fmt.Errorf("failsweep: outage duration must not be negative, got %v", d)
		}
	}
	shape, err := resolveLoad(sp.Load)
	if err != nil {
		return nil, nil, fmt.Errorf("failsweep: %w", err)
	}
	if sp.Load.Hosts == 0 {
		shape.hosts = DefaultFailHosts
	}
	if shape.hosts < 2 {
		return nil, nil, fmt.Errorf("failsweep: need at least 2 hosts to exchange traffic, got %d", shape.hosts)
	}
	if sp.Fabric.Leaves == 0 {
		sp.Fabric.Leaves = defaultFailLeaves
	}
	if sp.Fabric.Spines == 0 {
		sp.Fabric.Spines = defaultFailSpines
	}
	if cfg.Spine < 0 || cfg.Spine >= sp.Fabric.Spines {
		return nil, nil, fmt.Errorf("failsweep: swept spine %d outside the fabric's %d spines", cfg.Spine, sp.Fabric.Spines)
	}
	if cfg.Load < 0 || cfg.Load != cfg.Load {
		return nil, nil, fmt.Errorf("failsweep: offered load must be positive and finite, got %g", cfg.Load)
	}

	n := len(LoadSweepArchs) * len(outages)
	axes := func(i int) (arch string, dur sim.Time) {
		return LoadSweepArchs[i/len(outages)], outages[i%len(outages)]
	}
	var o *obs.Observer
	if ospec.Enabled() {
		labels := make([]string, n)
		for i := range labels {
			arch, dur := axes(i)
			labels[i] = fmt.Sprintf("failsweep/%s/outage=%v", arch, dur)
		}
		o = obs.New(ospec, labels...)
	}
	rows := make([]FailRow, n)
	errs := make([]error, n)
	forEachCell(n, parallelism, func(i int) {
		arch, dur := axes(i)
		row, err := failCell(sp, arch, dur, shape, cfg, o.Cell(i))
		if err != nil {
			errs[i] = fmt.Errorf("failsweep: %s outage=%v: %w", arch, dur, err)
			return
		}
		rows[i] = row
	})
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	return rows, o, nil
}

// failPolicy resolves the sweep's ARQ policy from the spec's Fault knobs,
// substituting the fabric-scale retransmit base when the spec leaves it
// at zero.
func failPolicy(fs fault.Spec) fault.RetryPolicy {
	if fs.RetryBaseNs == 0 {
		fs.RetryBaseNs = int(defaultFailRetryBase / sim.Nanosecond)
	}
	return fs.NetPolicy()
}

// failCell runs one (arch, outage duration) cell. The traffic is
// rackCell's — many-to-many cluster-mix traffic over the cell spec's
// clos — with two additions: the cell's failure schedule (the spec's
// background Failure block plus the swept spine window) is armed on the
// topology, and every sender transmits through an ack-timeout ARQ whose
// acknowledgement rides the fabric→host echo path, so a frame eaten by
// the outage is retransmitted and, once ECMP has failed over, delivered.
func failCell(sp spec.Spec, arch string, dur sim.Time, shape loadShape, cfg FailSweepConfig, oc *obs.Cell) (FailRow, error) {
	d := sp.MustDerive()
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: cfg.EventBudget})

	txs, rxs, err := rackEndpoints(d, arch, shape.hosts, cfg.Seed)
	if err != nil {
		return FailRow{}, err
	}
	link := d.Link
	perHostGap, err := shape.cluster.MeanGapForLoad(cfg.Load, 1, link.BitsPerSec/1e9)
	if err != nil {
		return FailRow{}, err
	}

	sched := sp.Fault.Failure
	winStart := cfg.OutageStart
	winEnd := winStart + dur
	if dur > 0 {
		outs := make([]fault.Outage, 0, len(sched.Outages)+1)
		outs = append(outs, sched.Outages...)
		outs = append(outs, fault.Outage{
			Kind:    fault.OutageSpine,
			Index:   cfg.Spine,
			StartNs: int(winStart / sim.Nanosecond),
			EndNs:   int(winEnd / sim.Nanosecond),
		})
		sched.Outages = outs
	}

	reg := oc.Metrics()
	deliveredC := reg.Counter(arch + ".delivered")
	droppedC := reg.Counter(arch + ".dropped")
	reroutedC := reg.Counter(arch + ".rerouted")
	outageDropsC := reg.Counter(arch + ".outage_drops")
	obs.NewEngineProbe(reg, arch+".engine").Attach(eng)

	topo := d.NewTopology(fabric.SingleEngine(eng), shape.hosts, shape.portBuffer)
	if d.Spec.Fault.PortDropProb > 0 {
		topo.InjectFaults(fault.NewInjector(d.Spec.Fault, cfg.Seed))
	}
	if _, err := topo.ArmFailures(sched, cfg.Seed); err != nil {
		return FailRow{}, err
	}
	ecn := topo.Spec().ECNThreshold > 0
	policy := failPolicy(d.Spec.Fault)

	recvs := make([]*serialServer, shape.hosts)
	for i := range recvs {
		recvs[i] = &serialServer{eng: eng}
	}

	// Global packet index: host-major, so the delivery dedup (first copy
	// wins; spurious retransmits are discarded at the NIC before the RX
	// driver) is a flat slice.
	base := make([]int, shape.hosts)
	acc := 0
	for h := range base {
		base[h] = acc
		acc += shareCount(cfg.Packets, shape.hosts, h)
	}
	seen := make([]bool, cfg.Packets)

	var histAll, histBefore, histDuring, histAfter stats.Histogram
	delivered, duringDelivered, recovered := 0, 0, 0
	dropped, failedTotal, duringOffered := 0, 0, 0
	var recoverySum sim.Time
	var ctrs stats.FaultCounters

	for h := 0; h < shape.hosts; h++ {
		count := shareCount(cfg.Packets, shape.hosts, h)
		if count == 0 {
			continue
		}
		gen := workload.NewOpenLoop(shape.cluster, shape.process, perHostGap,
			cfg.Seed+uint64(h)*0x9e3779b97f4a7c15)
		destR := sim.NewRand(cfg.Seed ^ 0x5eed0fde57 + uint64(h)*0x9e3779b97f4a7c15)
		txSrv := &serialServer{eng: eng}
		rt := &nic.Retransmitter{Eng: eng, Policy: policy, Counters: &ctrs}
		tx := txs[h]
		src := h
		host := uint64(h)
		gbase := base[h]
		var pacer *fabric.Pacer
		if ecn {
			pacer = &fabric.Pacer{Backoff: topo.Spec().ECNBackoff(),
				Stall: func(dur sim.Time, done func()) { txSrv.Submit(dur, done) }}
		}

		var arm func(i int)
		arm = func(i int) {
			if i >= count {
				return
			}
			e := gen.Next()
			eng.At(e.At, func() {
				arm(i + 1)
				p := e.Packet(host<<32 | uint64(i))
				dst := workload.SampleDest(destR, e.Locality, src, shape.hosts, topo.Leaves())
				born := eng.Now()
				if born >= winStart && born < winEnd {
					duringOffered++
				}
				g := gbase + i
				rt.SendAsync(func(attempt int, ack func()) {
					txSrv.Submit(tx.TX(p).Total(), func() {
						f := ethernet.Frame{ID: p.ID, Bytes: e.Size}
						ok := topo.Inject(src, dst, f, func(fr ethernet.Frame) {
							if seen[g] {
								return // duplicate of an already-delivered packet
							}
							seen[g] = true
							recvs[dst].Submit(rxs[dst].RX(p).Total(), func() {
								now := eng.Now()
								lat := now - born
								histAll.Observe(lat)
								// Bucket the tails by delivery instant so a
								// recovered frame's timer-dominated latency
								// lands in the window it completed in, not
								// the one it was born in.
								switch {
								case now < winStart:
									histBefore.Observe(lat)
								case now < winEnd:
									histDuring.Observe(lat)
								default:
									histAfter.Observe(lat)
								}
								if born >= winStart && born < winEnd {
									duringDelivered++
								}
								delivered++
								if attempt > 0 {
									recovered++
									recoverySum += lat
								}
								topo.EchoMark(src, ack)
							})
							if pacer != nil && fr.ECN {
								topo.EchoMark(src, pacer.OnMark)
							}
						})
						if !ok {
							dropped++
						}
					})
				}, func(attempts int, err error) {
					if err != nil {
						failedTotal++
					}
				})
			})
		}
		arm(0)
	}

	eng.Run()
	if err := eng.Err(); err != nil {
		return FailRow{}, err
	}

	fstats := topo.Stats()
	dropped += int(fstats.Dropped + fstats.OutageDrops + fstats.BurstDrops)
	timeToReroute := sim.Time(-1)
	if hv := topo.Health(); hv != nil {
		if first := hv.Stats().FirstReroute; first >= 0 {
			timeToReroute = first - winStart
		}
	}
	var meanRecovery sim.Time
	if recovered > 0 {
		meanRecovery = recoverySum / sim.Time(recovered)
	}
	p99Before := histBefore.Percentile(99)
	p99After := histAfter.Percentile(99)
	inflation := 0.0
	if p99Before > 0 && p99After > 0 {
		inflation = float64(p99After) / float64(p99Before)
	}

	deliveredC.Add(int64(delivered))
	droppedC.Add(int64(dropped))
	reroutedC.Add(int64(fstats.Rerouted))
	outageDropsC.Add(int64(fstats.OutageDrops))
	fault.PublishCounters(reg, arch, ctrs)
	reg.Gauge(arch + ".leaf_max_depth").Set(int64(fstats.LeafMaxDepth))
	reg.Gauge(arch + ".spine_max_depth").Set(int64(fstats.SpineMaxDepth))

	return FailRow{
		Arch:            arch,
		Outage:          dur,
		Delivered:       delivered,
		Failed:          failedTotal,
		DuringOffered:   duringOffered,
		DuringDelivered: duringDelivered,
		Dropped:         dropped,
		OutageDrops:     fstats.OutageDrops,
		BurstDrops:      fstats.BurstDrops,
		Rerouted:        fstats.Rerouted,
		Degraded:        fstats.Degraded,
		Retransmits:     ctrs.Retransmits,
		Recovered:       recovered,
		TimeToReroute:   timeToReroute,
		MeanRecovery:    meanRecovery,
		P99Before:       p99Before,
		P999Before:      histBefore.Percentile(99.9),
		P99During:       histDuring.Percentile(99),
		P999During:      histDuring.Percentile(99.9),
		P99After:        p99After,
		P999After:       histAfter.Percentile(99.9),
		TailInflation:   inflation,
		Hist:            &histAll,
	}, nil
}
