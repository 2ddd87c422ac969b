package experiments

import (
	"fmt"
	"math"

	"netdimm/internal/collective"
	"netdimm/internal/driver"
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

// This file keeps the three open-loop cells that fabricCell replaced —
// loadCell, rackCell and failCell, each nesting an arrival closure, a TX
// completion, a fabric delivery and an RX completion per packet — with
// their endpoint builders and knee detectors, as the reference the single
// cell must match row for row and metric for metric. refCollCell plays the
// same part for the collective cell, and refFig12aCell, which measures one
// (cluster, switch latency) point by running the whole driver path again,
// for the Fig. 12(a) cell that runs it once per cluster. refReplayTrace
// prices every packet of a trace once per architecture, for the replay
// that runs on the Fig. 12(a) cell. The open-loop and collective
// references queue at serialServer, the closure-per-job driver queue the
// cell transport's single ring of frame jobs replaced.

func refDetectKnees(rows []LoadRow, kneeFactor float64) []LoadKnee {
	if kneeFactor <= 0 {
		kneeFactor = 3
	}
	byArch := make(map[string][]LoadRow)
	for _, r := range rows {
		byArch[r.Arch] = append(byArch[r.Arch], r)
	}
	var knees []LoadKnee
	for _, arch := range Archs {
		rs := byArch[arch]
		if len(rs) == 0 {
			continue
		}
		// Rows arrive in sweep order (ascending load per architecture);
		// keep order-insensitivity for callers that re-sorted.
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0 && rs[j-1].Load > rs[j].Load; j-- {
				rs[j-1], rs[j] = rs[j], rs[j-1]
			}
		}
		base := rs[0].P99
		knee := LoadKnee{Arch: arch}
		for _, r := range rs {
			if base > 0 && float64(r.P99) > kneeFactor*float64(base) {
				knee.Saturated = true
				break
			}
			knee.Knee = r.Load
		}
		if !knee.Saturated {
			// The grid never crossed the bound (or had a single row, which
			// cannot bracket a knee): report the explicit no-knee result
			// instead of passing the top of the grid off as a knee.
			knee.Knee = 0
		}
		knees = append(knees, knee)
	}
	return knees
}

func refLoadCell(sp spec.Spec, arch string, load float64, shape loadShape, packets int, seed uint64, oc *obs.Cell) (LoadRow, error) {
	d := sp.MustDerive()
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: loadEventBudget})
	link := d.Link

	txs, rx, err := refLoadEndpoints(d, arch, shape.hosts, seed)
	if err != nil {
		return LoadRow{}, err
	}

	perHostGap, err := shape.cluster.MeanGapForLoad(load, shape.hosts, link.BitsPerSec/1e9)
	if err != nil {
		return LoadRow{}, err
	}

	reg := oc.Metrics()
	recv := &serialServer{eng: eng}
	if s := reg.Series(arch + ".rx_queue_depth"); s != nil {
		recv.onDepth = func(at sim.Time, depth int) { s.Sample(at, int64(depth)) }
	}
	egress := reg.Series(arch + ".egress_depth")
	deliveredC := reg.Counter(arch + ".delivered")
	droppedC := reg.Counter(arch + ".dropped")
	obs.NewEngineProbe(reg, arch+".engine").Attach(eng)
	if cellProbe != nil {
		eng.SetProbe(cellProbe)
	}

	// The receiver is the fabric's last endpoint; every sender's traffic
	// funnels into its downlink (the incast bottleneck on the wire side).
	rcv := shape.hosts
	topo := d.NewTopology(fabric.SingleEngine(eng), shape.hosts+1, shape.portBuffer)
	if d.Spec.Fault.PortDropProb > 0 {
		topo.InjectFaults(fault.NewInjector(d.Spec.Fault, seed))
	}
	if _, err := topo.ArmFailures(d.Spec.Fault.Failure, seed); err != nil {
		return LoadRow{}, err
	}
	egPort := topo.Downlink(rcv)
	if egress != nil {
		topo.OnUplinkDeliver = func(int, int) { egress.Sample(eng.Now(), int64(egPort.Depth())) }
	}
	ecn := topo.Spec().ECNThreshold > 0

	var hist stats.Histogram
	delivered, dropped := 0, 0
	var wireBusy sim.Time

	for h := 0; h < shape.hosts; h++ {
		count := shareCount(packets, shape.hosts, h)
		if count == 0 {
			continue
		}
		// Per-host seeds are independent of the offered load, so the
		// packet sequence is identical along the load axis.
		gen := workload.NewOpenLoop(shape.cluster, shape.process, perHostGap,
			seed+uint64(h)*0x9e3779b97f4a7c15)
		txSrv := &serialServer{eng: eng}
		tx := txs[h]
		src := h
		host := uint64(h)
		var pacer *fabric.Pacer
		if ecn {
			// A mark stalls the sender by occupying its TX driver for one
			// backoff — queued arrivals wait behind it.
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
				born := eng.Now()
				txSrv.Submit(tx.TX(p).Total(), func() {
					f := ethernet.Frame{ID: p.ID, Bytes: e.Size}
					ok := topo.Inject(src, rcv, f, func(fr ethernet.Frame) {
						recv.Submit(rx.RX(p).Total(), func() {
							hist.Observe(eng.Now() - born)
							delivered++
							wireBusy += link.SerializeTime(e.Size)
						})
						if pacer != nil && fr.ECN {
							topo.EchoMark(src, pacer.OnMark)
						}
					})
					if !ok {
						dropped++
					}
				})
			})
		}
		arm(0)
	}

	if err := runFabric(eng, topo); err != nil {
		return LoadRow{}, err
	}

	fstats := topo.Stats()
	egStats := egPort.Stats()
	dropped += int(fstats.Dropped + fstats.OutageDrops + fstats.BurstDrops)
	util := 0.0
	if eng.Now() > 0 {
		util = float64(wireBusy) / float64(eng.Now())
	}
	deliveredC.Add(int64(delivered))
	droppedC.Add(int64(dropped))
	reg.Gauge(arch + ".link_util_pct").Set(int64(math.Round(util * 100)))
	reg.Gauge(arch + ".egress_max_depth").Set(int64(egStats.MaxDepth))
	reg.Gauge(arch + ".rx_max_depth").Set(int64(recv.maxDepth))
	if ecn {
		reg.Gauge(arch + ".ecn_marked").Set(int64(fstats.Marked))
	}

	return LoadRow{
		Arch:             arch,
		Load:             load,
		Mean:             hist.Mean(),
		P50:              hist.Percentile(50),
		P99:              hist.Percentile(99),
		P999:             hist.Percentile(99.9),
		Delivered:        delivered,
		Dropped:          dropped,
		EgressMaxDepth:   egStats.MaxDepth,
		EgressQueueDelay: egStats.AvgQueueDelay(),
		RxMaxDepth:       recv.maxDepth,
		LinkUtilization:  util,
		Hist:             &hist,
	}, nil
}

func refLoadEndpoints(d *spec.Derived, arch string, hosts int, seed uint64) ([]driver.Machine, driver.Machine, error) {
	txs := make([]driver.Machine, hosts)
	switch arch {
	case "dNIC":
		for h := range txs {
			txs[h] = d.NewDNIC(false)
		}
		return txs, d.NewDNIC(false), nil
	case "iNIC":
		for h := range txs {
			txs[h] = d.NewINIC(false)
		}
		return txs, d.NewINIC(false), nil
	case "NetDIMM":
		for h := range txs {
			nd, err := d.NewNetDIMM(seed + 2*uint64(h) + 1)
			if err != nil {
				return nil, nil, err
			}
			txs[h] = nd
		}
		ndRX, err := d.NewNetDIMM(seed + 2*uint64(hosts) + 2)
		if err != nil {
			return nil, nil, err
		}
		return txs, ndRX, nil
	default:
		return nil, nil, fmt.Errorf("unknown architecture %q", arch)
	}
}

func refDetectRackKnees(rows []RackRow, kneeFactor float64) []RackKnee {
	if kneeFactor <= 0 {
		kneeFactor = 3
	}
	type curve struct {
		arch  string
		racks int
		ecn   bool
	}
	groups := make(map[curve][]RackRow)
	var order []curve
	for _, r := range rows {
		k := curve{r.Arch, r.Racks, r.ECN}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var knees []RackKnee
	for _, k := range order {
		rs := groups[k]
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0 && rs[j-1].Load > rs[j].Load; j-- {
				rs[j-1], rs[j] = rs[j], rs[j-1]
			}
		}
		base := rs[0].P99
		knee := RackKnee{Arch: k.arch, Racks: k.racks, ECN: k.ecn}
		for _, r := range rs {
			if base > 0 && float64(r.P99) > kneeFactor*float64(base) {
				knee.Saturated = true
				break
			}
			knee.Knee = r.Load
		}
		if !knee.Saturated {
			// Same no-knee contract as DetectKnees: an unsaturated curve
			// reports Knee 0 instead of the top of the grid.
			knee.Knee = 0
		}
		knees = append(knees, knee)
	}
	return knees
}

func refRackCell(sp spec.Spec, arch string, load float64, shape loadShape, packets int, seed uint64, oc *obs.Cell) (RackRow, error) {
	d := sp.MustDerive()
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: rackEventBudget})
	link := d.Link

	txs, rxs, err := refRackEndpoints(d, arch, shape.hosts, seed)
	if err != nil {
		return RackRow{}, err
	}

	// Each host offers `load` of its OWN line rate (one source per link),
	// unlike the incast sweep where all hosts share the receiver's link.
	perHostGap, err := shape.cluster.MeanGapForLoad(load, 1, link.BitsPerSec/1e9)
	if err != nil {
		return RackRow{}, err
	}

	reg := oc.Metrics()
	deliveredC := reg.Counter(arch + ".delivered")
	droppedC := reg.Counter(arch + ".dropped")
	markedC := reg.Counter(arch + ".ecn_marked")
	obs.NewEngineProbe(reg, arch+".engine").Attach(eng)
	if cellProbe != nil {
		eng.SetProbe(cellProbe)
	}

	topo := d.NewTopology(fabric.SingleEngine(eng), shape.hosts, shape.portBuffer)
	if d.Spec.Fault.PortDropProb > 0 {
		topo.InjectFaults(fault.NewInjector(d.Spec.Fault, seed))
	}
	if _, err := topo.ArmFailures(d.Spec.Fault.Failure, seed); err != nil {
		return RackRow{}, err
	}
	ecn := topo.Spec().ECNThreshold > 0

	// Every host receives: one RX driver queue per host.
	recvs := make([]*serialServer, shape.hosts)
	for i := range recvs {
		recvs[i] = &serialServer{eng: eng}
	}

	var hist stats.Histogram
	delivered, dropped, crossRack := 0, 0, 0
	var wireBusy sim.Time

	for h := 0; h < shape.hosts; h++ {
		count := shareCount(packets, shape.hosts, h)
		if count == 0 {
			continue
		}
		// Per-host seeds are independent of the offered load, so the
		// packet and destination sequences are identical along the load
		// axis; the destination stream is separate from the arrival stream
		// so the fabric shape cannot perturb the traffic.
		gen := workload.NewOpenLoop(shape.cluster, shape.process, perHostGap,
			seed+uint64(h)*0x9e3779b97f4a7c15)
		destR := sim.NewRand(seed ^ 0x5eed0fde57 + uint64(h)*0x9e3779b97f4a7c15)
		txSrv := &serialServer{eng: eng}
		tx := txs[h]
		src := h
		host := uint64(h)
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
				if topo.CrossesSpine(src, dst) {
					crossRack++
				}
				born := eng.Now()
				txSrv.Submit(tx.TX(p).Total(), func() {
					f := ethernet.Frame{ID: p.ID, Bytes: e.Size}
					ok := topo.Inject(src, dst, f, func(fr ethernet.Frame) {
						recvs[dst].Submit(rxs[dst].RX(p).Total(), func() {
							hist.Observe(eng.Now() - born)
							delivered++
							wireBusy += link.SerializeTime(e.Size)
						})
						if pacer != nil && fr.ECN {
							topo.EchoMark(src, pacer.OnMark)
						}
					})
					if !ok {
						dropped++
					}
				})
			})
		}
		arm(0)
	}

	if err := runFabric(eng, topo); err != nil {
		return RackRow{}, err
	}

	fstats := topo.Stats()
	dropped += int(fstats.Dropped + fstats.OutageDrops + fstats.BurstDrops)
	rxMax := 0
	for _, r := range recvs {
		if r.maxDepth > rxMax {
			rxMax = r.maxDepth
		}
	}
	util := 0.0
	if eng.Now() > 0 {
		util = float64(wireBusy) / (float64(eng.Now()) * float64(shape.hosts))
	}
	deliveredC.Add(int64(delivered))
	droppedC.Add(int64(dropped))
	markedC.Add(int64(fstats.Marked))
	reg.Gauge(arch + ".leaf_max_depth").Set(int64(fstats.LeafMaxDepth))
	reg.Gauge(arch + ".spine_max_depth").Set(int64(fstats.SpineMaxDepth))
	reg.Gauge(arch + ".rx_max_depth").Set(int64(rxMax))
	reg.Gauge(arch + ".link_util_pct").Set(int64(math.Round(util * 100)))

	return RackRow{
		Arch:            arch,
		Racks:           topo.Leaves(),
		ECN:             ecn,
		Load:            load,
		Mean:            hist.Mean(),
		P50:             hist.Percentile(50),
		P99:             hist.Percentile(99),
		P999:            hist.Percentile(99.9),
		Delivered:       delivered,
		Dropped:         dropped,
		Marked:          int(fstats.Marked),
		CrossRack:       crossRack,
		LeafMaxDepth:    fstats.LeafMaxDepth,
		SpineMaxDepth:   fstats.SpineMaxDepth,
		RxMaxDepth:      rxMax,
		LinkUtilization: util,
		Hist:            &hist,
	}, nil
}

func refRackEndpoints(d *spec.Derived, arch string, hosts int, seed uint64) ([]driver.Machine, []driver.Machine, error) {
	txs := make([]driver.Machine, hosts)
	rxs := make([]driver.Machine, hosts)
	switch arch {
	case "dNIC":
		for h := range txs {
			txs[h], rxs[h] = d.NewDNIC(false), d.NewDNIC(false)
		}
	case "iNIC":
		for h := range txs {
			txs[h], rxs[h] = d.NewINIC(false), d.NewINIC(false)
		}
	case "NetDIMM":
		for h := range txs {
			nd, err := d.NewNetDIMM(seed + 2*uint64(h) + 1)
			if err != nil {
				return nil, nil, err
			}
			txs[h] = nd
			nd, err = d.NewNetDIMM(seed + 2*uint64(h) + 2)
			if err != nil {
				return nil, nil, err
			}
			rxs[h] = nd
		}
	default:
		return nil, nil, fmt.Errorf("unknown architecture %q", arch)
	}
	return txs, rxs, nil
}

func refFailCell(sp spec.Spec, arch string, dur sim.Time, shape loadShape, packets int, seed uint64, load float64, outageStart sim.Time, oc *obs.Cell) (FailRow, error) {
	d := sp.MustDerive()
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: failEventBudget})

	txs, rxs, err := refRackEndpoints(d, arch, shape.hosts, seed)
	if err != nil {
		return FailRow{}, err
	}
	link := d.Link
	perHostGap, err := shape.cluster.MeanGapForLoad(load, 1, link.BitsPerSec/1e9)
	if err != nil {
		return FailRow{}, err
	}

	sched := sp.Fault.Failure
	winStart := outageStart
	winEnd := winStart + dur
	if dur > 0 {
		outs := make([]fault.Outage, 0, len(sched.Outages)+1)
		outs = append(outs, sched.Outages...)
		outs = append(outs, fault.Outage{
			Kind:    fault.OutageSpine,
			Index:   failSpine,
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
	if cellProbe != nil {
		eng.SetProbe(cellProbe)
	}

	topo := d.NewTopology(fabric.SingleEngine(eng), shape.hosts, shape.portBuffer)
	if d.Spec.Fault.PortDropProb > 0 {
		topo.InjectFaults(fault.NewInjector(d.Spec.Fault, seed))
	}
	if _, err := topo.ArmFailures(sched, seed); err != nil {
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
		acc += shareCount(packets, shape.hosts, h)
	}
	seen := make([]bool, packets)

	var histAll, histBefore, histDuring, histAfter stats.Histogram
	delivered, duringDelivered, recovered := 0, 0, 0
	dropped, failedTotal, duringOffered := 0, 0, 0
	var recoverySum sim.Time
	var ctrs stats.FaultCounters

	for h := 0; h < shape.hosts; h++ {
		count := shareCount(packets, shape.hosts, h)
		if count == 0 {
			continue
		}
		gen := workload.NewOpenLoop(shape.cluster, shape.process, perHostGap,
			seed+uint64(h)*0x9e3779b97f4a7c15)
		destR := sim.NewRand(seed ^ 0x5eed0fde57 + uint64(h)*0x9e3779b97f4a7c15)
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

	if err := runFabric(eng, topo); err != nil {
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

// refCollCell is the collective cell that collCell replaced: its transport
// nests a TX completion, a fabric delivery and an RX completion closure per
// frame, and it keeps a copy of every rank's input for collective.Verify.
// It is the reference collCell must match row for row, metric for metric
// and in its stall error.
func refCollCell(sp spec.Spec, arch, opName string, ranks int, shape collShape, seed uint64, oc *obs.Cell) (CollRow, error) {
	op, err := collective.ParseOp(opName)
	if err != nil {
		return CollRow{}, err
	}
	d := sp.MustDerive()
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: collEventBudget})
	link := d.Link

	txs, rxs, err := endpoints(d, arch, ranks, false, seed)
	if err != nil {
		return CollRow{}, err
	}

	reg := oc.Metrics()
	deliveredC := reg.Counter(arch + ".delivered")
	droppedC := reg.Counter(arch + ".dropped")
	markedC := reg.Counter(arch + ".ecn_marked")
	obs.NewEngineProbe(reg, arch+".engine").Attach(eng)
	if cellProbe != nil {
		eng.SetProbe(cellProbe)
	}

	topo := d.NewTopology(fabric.SingleEngine(eng), ranks, shape.portBuffer)

	// Payloads: one vector per rank, contents drawn from per-rank streams
	// so they are independent of op and architecture.
	elems := shape.payload / 8
	if elems < 1 {
		elems = 1
	}
	before := make([][]int64, ranks)
	data := make([][]int64, ranks)
	for r := range data {
		rng := sim.NewRand(seed ^ 0xc0_11ec_71fe + uint64(r)*0x9e3779b97f4a7c15)
		before[r] = make([]int64, elems)
		for i := range before[r] {
			before[r][i] = rng.Int63n(1 << 40)
		}
		data[r] = append([]int64(nil), before[r]...)
	}

	// Per-rank TX and RX driver queues.
	txSrvs := make([]*serialServer, ranks)
	rxSrvs := make([]*serialServer, ranks)
	for r := range txSrvs {
		txSrvs[r] = &serialServer{eng: eng}
		rxSrvs[r] = &serialServer{eng: eng}
	}

	// seqs numbers each rank's messages for the frame IDs.
	seqs := make([]int, ranks)
	frames, messages, dropped := 0, 0, 0
	var bytesOnWire int64
	var wireBusy sim.Time

	// The transport: fragment the message into chunk-sized frames, pay
	// TX serialization per frame, inject, pay RX per frame, and fire the
	// executor's deliver once the last frame has cleared its RX queue.
	send := func(src, dst, step, bytes int, deliver func()) {
		tx, rxSrv := txs[src], rxSrvs[dst]
		nf := (bytes + shape.chunk - 1) / shape.chunk
		if nf < 1 {
			nf = 1 // a zero-byte chunk still carries the dependency token
		}
		seq := seqs[src]
		seqs[src]++
		remaining := nf
		for f := 0; f < nf; f++ {
			sz := shareCount(bytes, nf, f)
			if sz < minFrameBytes {
				sz = minFrameBytes
			}
			p := nic.Packet{ID: uint64(src)<<40 | uint64(seq)<<20 | uint64(f), Size: sz, Born: eng.Now()}
			txSrvs[src].Submit(tx.TX(p).Total(), func() {
				ok := topo.Inject(src, dst, ethernet.Frame{ID: p.ID, Bytes: p.Size}, func(fr ethernet.Frame) {
					rxSrv.Submit(rxs[dst].RX(p).Total(), func() {
						frames++
						bytesOnWire += int64(p.Size + nic.EthernetOverheadBytes)
						wireBusy += link.SerializeTime(p.Size)
						remaining--
						if remaining == 0 {
							messages++
							topo.EchoMark(dst, deliver)
						}
					})
				})
				if !ok {
					dropped++
				}
			})
		}
	}

	plan := collective.NewPlan(op, ranks)
	exec := collective.NewExec(plan, data, send, func(int) sim.Time { return eng.Now() })
	for r := 0; r < ranks; r++ {
		r := r
		eng.At(0, func() { exec.Launch(r) })
	}

	if err := runFabric(eng, topo); err != nil {
		return CollRow{}, err
	}

	fstats := topo.Stats()
	dropped += int(fstats.Dropped + fstats.OutageDrops + fstats.BurstDrops)
	if exec.DoneRanks() != ranks {
		rank, steps := exec.Progress()
		return CollRow{}, fmt.Errorf("collective stalled: %d/%d ranks finished, rank %d stuck after %d/%d steps with %d dropped frames (raise Load.PortBuffer above %d to absorb the step burst)",
			exec.DoneRanks(), ranks, rank, steps, plan.MaxSteps(), dropped, shape.portBuffer)
	}
	if err := collective.Verify(op, before, data); err != nil {
		return CollRow{}, err
	}

	// Trace spans are emitted after the run from the executor's recorded
	// step instants: one track per rank, one span per step.
	if oc != nil {
		for r := 0; r < ranks; r++ {
			track := oc.Track(fmt.Sprintf("rank%03d", r))
			var start sim.Time
			for s, end := range exec.StepEnds(r) {
				track.Span(fmt.Sprintf("step%d", s), start, end)
				start = end
			}
		}
	}

	util := 0.0
	if eng.Now() > 0 {
		util = float64(wireBusy) / (float64(eng.Now()) * float64(ranks))
	}
	deliveredC.Add(int64(messages))
	droppedC.Add(int64(dropped))
	markedC.Add(int64(fstats.Marked))
	reg.Gauge(arch + ".completion_ns").Set(int64(exec.Completion() / sim.Nanosecond))
	reg.Gauge(arch + ".step_skew_ns").Set(int64(exec.StepSkew() / sim.Nanosecond))
	reg.Gauge(arch + ".link_util_pct").Set(int64(math.Round(util * 100)))

	return CollRow{
		Arch:            arch,
		Op:              op.String(),
		Ranks:           ranks,
		PayloadBytes:    shape.payload,
		Steps:           plan.MaxSteps(),
		Completion:      exec.Completion(),
		StepSkew:        exec.StepSkew(),
		BytesOnWire:     bytesOnWire,
		Frames:          frames,
		Delivered:       messages,
		Dropped:         dropped,
		Marked:          int(fstats.Marked),
		LinkUtilization: util,
	}, nil
}

// refFig12a is Fig12a with one cell per (cluster, switch latency).
func refFig12a(sp spec.Spec, clusters []workload.Cluster, switchLats []sim.Time, n int, seed uint64, parallelism int) ([]Fig12aRow, error) {
	rows := make([]Fig12aRow, len(clusters)*len(switchLats))
	errs := make([]error, len(rows))
	forEachCell(len(rows), parallelism, func(idx int) {
		cl := clusters[idx/len(switchLats)]
		sl := switchLats[idx%len(switchLats)]
		rows[idx], errs[idx] = refFig12aCell(sp.MustDerive(), cl, sl, n, seed)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// refFig12aCell measures one (cluster, switch latency) grid point. Every cell
// regenerates its trace and machines from the same seed, so cells are
// fully independent of each other.
func refFig12aCell(d *spec.Derived, cl workload.Cluster, sl sim.Time, n int, seed uint64) (Fig12aRow, error) {
	fabric := d.Fabric(sl)
	fabric.Switch.CutThrough = false

	events := workload.NewGenerator(cl, 0, seed).Generate(n)
	ndTX, err := d.NewNetDIMM(seed*2 + 1)
	if err != nil {
		return Fig12aRow{}, err
	}
	ndRX, err := d.NewNetDIMM(seed*2 + 2)
	if err != nil {
		return Fig12aRow{}, err
	}
	dn := d.NewDNIC(false)
	in := d.NewINIC(false)

	var dnSum, inSum, ndSum sim.Time
	for i, e := range events {
		p := e.Packet(uint64(i))
		wire := fabric.WireTime(e.Size, e.Locality)

		dnB := dn.TX(p)
		dnB.Add(stats.Wire, wire)
		dnSum += dnB.Plus(dn.RX(p)).Total()

		inB := in.TX(p)
		inB.Add(stats.Wire, wire)
		inSum += inB.Plus(in.RX(p)).Total()

		ndB := ndTX.TX(p)
		ndB.Add(stats.Wire, wire)
		ndSum += ndB.Plus(ndRX.RX(p)).Total()
	}
	cnt := sim.Time(len(events))
	return Fig12aRow{
		Cluster:       cl,
		SwitchLatency: sl,
		DNICMean:      dnSum / cnt,
		INICMean:      inSum / cnt,
		NetDIMMMean:   ndSum / cnt,
	}, nil
}

// refReplayTrace replays events once per architecture, each on its own
// machines, pricing every packet's driver path and wire term.
func refReplayTrace(sp spec.Spec, events []workload.Event, switchLatency sim.Time, seed uint64) ([]ReplayResult, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("experiments: empty trace")
	}
	out := make([]ReplayResult, len(Archs))
	for i, arch := range Archs {
		d := sp.MustDerive()
		fabric := d.Fabric(switchLatency)
		fabric.Switch.CutThrough = false
		var tx, rx driver.Machine
		switch arch {
		case "dNIC":
			m := d.NewDNIC(false)
			tx, rx = m, m
		case "iNIC":
			m := d.NewINIC(false)
			tx, rx = m, m
		default:
			ndTX, err := d.NewNetDIMM(seed + 1)
			if err != nil {
				return nil, err
			}
			ndRX, err := d.NewNetDIMM(seed + 2)
			if err != nil {
				return nil, err
			}
			tx, rx = ndTX, ndRX
		}
		var h stats.Histogram
		for j, e := range events {
			p := e.Packet(uint64(j))
			wire := fabric.WireTime(e.Size, e.Locality)
			h.Observe(tx.TX(p).Total() + wire + rx.RX(p).Total())
		}
		out[i] = ReplayResult{Arch: arch, Packets: h.Count(), Mean: h.Mean(), P50: h.Percentile(50), P99: h.Percentile(99)}
	}
	return out, nil
}

// serialServer is the reference cells' FIFO single-server queue on the
// cell's engine — the model of one driver core draining packets one at a
// time, with a completion closure per job. The queue is a ring whose head
// is the job in service.
type serialServer struct {
	eng      *sim.Engine
	queue    sim.FIFO[serialJob]
	finishFn func() // s.finish, bound on the first Submit
	maxDepth int
	// onDepth, when set, samples the queue depth after every change.
	onDepth func(at sim.Time, depth int)
}

type serialJob struct {
	service sim.Time
	done    func()
}

// Depth returns queued jobs including the one in service.
func (s *serialServer) Depth() int { return s.queue.Len() }

func (s *serialServer) sample() {
	if d := s.Depth(); d > s.maxDepth {
		s.maxDepth = d
	}
	if s.onDepth != nil {
		s.onDepth(s.eng.Now(), s.Depth())
	}
}

// Submit enqueues one job; done fires when its service completes.
func (s *serialServer) Submit(service sim.Time, done func()) {
	s.queue.Push(serialJob{service: service, done: done})
	s.sample()
	if s.queue.Len() == 1 { // the server was idle
		s.serve()
	}
}

// serve starts the head job's service.
func (s *serialServer) serve() {
	if s.finishFn == nil {
		s.finishFn = s.finish
	}
	s.eng.Schedule(s.queue.Head().service, s.finishFn)
}

// finish completes the head job: its done runs while it still counts as in
// service, then the next job starts.
func (s *serialServer) finish() {
	s.queue.Head().done()
	s.queue.Drop()
	if s.queue.Len() == 0 {
		s.sample()
		return
	}
	s.serve()
}
