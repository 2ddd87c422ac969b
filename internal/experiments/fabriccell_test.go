package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"netdimm/internal/fabric"
	"netdimm/internal/fault"
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// refLoadSweep, refRackSweep and refFailSweep drive the reference cells of
// cellref_test.go over the same axes, labels and per-cell specs as the
// sweeps, sequentially.

func refLoadSweep(sp spec.Spec, loads []float64, packets int, seed uint64, ospec obs.Spec) ([]LoadRow, []LoadKnee, *obs.Observer, error) {
	shape, err := resolveLoad(sp.Load, loads, 8, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	var labels []string
	for _, arch := range Archs {
		for _, l := range loads {
			labels = append(labels, fmt.Sprintf("loadsweep/%s/load=%g", arch, l))
		}
	}
	o := obs.New(ospec, labels...)
	var rows []LoadRow
	for i, label := range labels {
		arch, load := Archs[i/len(loads)], loads[i%len(loads)]
		row, err := refLoadCell(sp, arch, load, shape, packets, seed, o.Cell(i))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", label, err)
		}
		rows = append(rows, row)
	}
	return rows, refDetectKnees(rows, shape.kneeFactor), o, nil
}

func refRackSweep(sp spec.Spec, rk int, loads []float64, packets int, seed uint64, ospec obs.Spec) ([]RackRow, []RackKnee, *obs.Observer, error) {
	shape, err := resolveLoad(sp.Load, loads, DefaultRackHosts, 2)
	if err != nil {
		return nil, nil, nil, err
	}
	ecnThreshold := sp.Fabric.ECNThreshold
	if ecnThreshold == 0 {
		ecnThreshold = fabric.DefaultECNThreshold
	}
	type cell struct {
		arch string
		ecn  bool
		load float64
	}
	var cells []cell
	var labels []string
	for _, arch := range Archs {
		for _, ecn := range []bool{false, true} {
			for _, l := range loads {
				cells = append(cells, cell{arch, ecn, l})
				labels = append(labels, fmt.Sprintf("racksweep/%s/racks=%d/ecn=%s/load=%g", arch, rk, onOff(ecn), l))
			}
		}
	}
	o := obs.New(ospec, labels...)
	var rows []RackRow
	for i, c := range cells {
		csp := sp
		csp.Fabric.Leaves = rk
		if csp.Fabric.Spines == 0 {
			csp.Fabric.Spines = rackSpines(shape.hosts, rk)
		}
		if c.ecn {
			csp.Fabric.ECNThreshold = ecnThreshold
		} else {
			csp.Fabric.ECNThreshold = 0
			csp.Fabric.ECNBackoffNs = 0
		}
		row, err := refRackCell(csp, c.arch, c.load, shape, packets, seed, o.Cell(i))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", labels[i], err)
		}
		rows = append(rows, row)
	}
	return rows, refDetectRackKnees(rows, shape.kneeFactor), o, nil
}

// refFailSweep runs cell, the reference cell or the sweep's, over the
// failure sweep's axes, labels and fabric defaults.
func refFailSweep(sp spec.Spec, outages []sim.Time, ospec obs.Spec,
	cell func(sp spec.Spec, arch string, dur sim.Time, shape loadShape, oc *obs.Cell) (FailRow, error)) ([]FailRow, *obs.Observer, error) {
	shape, err := resolveLoad(sp.Load, nil, DefaultFailHosts, 2)
	if err != nil {
		return nil, nil, err
	}
	if sp.Fabric.Leaves == 0 {
		sp.Fabric.Leaves = defaultFailLeaves
	}
	if sp.Fabric.Spines == 0 {
		sp.Fabric.Spines = defaultFailSpines
	}
	var labels []string
	for _, arch := range Archs {
		for _, d := range outages {
			labels = append(labels, fmt.Sprintf("failsweep/%s/outage=%v", arch, d))
		}
	}
	o := obs.New(ospec, labels...)
	var rows []FailRow
	for i, label := range labels {
		arch, dur := Archs[i/len(outages)], outages[i%len(outages)]
		row, err := cell(sp, arch, dur, shape, o.Cell(i))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", label, err)
		}
		rows = append(rows, row)
	}
	return rows, o, nil
}

// randomCellSpec draws a small open-loop configuration: 2–12 hosts, a
// random cluster and process, 1–4 frame port buffers, ECN at threshold 1
// half the time, and on some configs switch-port drops, a spine or link
// outage, Gilbert–Elliott bursts and a tight ARQ retry cap.
func randomCellSpec(r *sim.Rand) spec.Spec {
	sp := spec.TableOne()
	sp.Load.Hosts = r.Range(2, 12)
	sp.Load.Cluster = []string{"database", "webserver", "hadoop"}[r.Intn(3)]
	sp.Load.Process = []string{"poisson", "fixed"}[r.Intn(2)]
	sp.Load.PortBuffer = r.Range(1, 4)
	sp.Fabric.Leaves = r.Intn(4)
	sp.Fabric.Spines = r.Intn(3)
	if sp.Fabric.Leaves > 1 && sp.Fabric.Spines == 0 {
		sp.Fabric.Spines = 1
	}
	if r.Intn(2) == 0 {
		sp.Fabric.ECNThreshold = 1
		sp.Fabric.ECNBackoffNs = r.Range(100, 2000)
	}
	if r.Intn(3) == 0 {
		sp.Fault.PortDropProb = 0.05
	}
	if r.Intn(3) == 0 {
		start := r.Range(0, 20_000)
		sp.Fault.Failure.Outages = append(sp.Fault.Failure.Outages, fault.Outage{
			Kind: fault.OutageLink, Index: r.Intn(sp.Load.Hosts),
			StartNs: start, EndNs: start + r.Range(1_000, 30_000)})
	}
	if sp.Fabric.Spines > 0 && sp.Fabric.Leaves > 1 && r.Intn(3) == 0 {
		start := r.Range(0, 20_000)
		sp.Fault.Failure.Outages = append(sp.Fault.Failure.Outages, fault.Outage{
			Kind: fault.OutageSpine, Index: r.Intn(sp.Fabric.Spines),
			StartNs: start, EndNs: start + r.Range(1_000, 30_000)})
	}
	if r.Intn(3) == 0 {
		sp.Fault.Failure.Burst = fault.Burst{GoodLossProb: 0.001, BadLossProb: 0.3, GoodToBad: 0.02, BadToGood: 0.3}
	}
	if r.Intn(3) == 0 {
		sp.Fault.MaxRetries = r.Range(1, 3)
		sp.Fault.RetryBaseNs = r.Range(500, 5_000)
	}
	return sp
}

// TestFabricCellMatchesReference runs ~100 small random configurations
// through each sweep and through the reference cells, and requires both
// to fail or neither, with identical rows, knees and metrics CSV.
func TestFabricCellMatchesReference(t *testing.T) {
	r := sim.NewRand(0xfab1c)
	configs := 99
	if testing.Short() {
		configs = 30
	}
	ospec := obs.Spec{Metrics: true}
	// seen tallies what the configurations exercised, so a generator
	// change cannot quietly stop covering marks, drops or ARQ give-ups.
	var seen struct{ marked, dropped, outage, burst, retransmits, failed int }
	for c := 0; c < configs; c++ {
		sp := randomCellSpec(r)
		seed := r.Uint64() >> 40
		packets := r.Range(20, 120)
		name := fmt.Sprintf("config %d (hosts=%d leaves=%d spines=%d ecn=%d buf=%d faults=%+v)",
			c, sp.Load.Hosts, sp.Fabric.Leaves, sp.Fabric.Spines, sp.Fabric.ECNThreshold, sp.Load.PortBuffer, sp.Fault)
		var got, want []any
		var gotO, wantO *obs.Observer
		var gotErr, wantErr error
		switch c % 3 {
		case 0:
			loads := []float64{0.05 + r.Float64()*0.3, 0.1 + r.Float64()}
			rows, knees, o, err := LoadSweepObserved(sp, loads, packets, seed, 1, ospec)
			got, gotO, gotErr = []any{rows, knees}, o, err
			for _, row := range rows {
				seen.dropped += row.Dropped
			}
			rows, knees, o, err = refLoadSweep(sp, loads, packets, seed, ospec)
			want, wantO, wantErr = []any{rows, knees}, o, err
		case 1:
			rk := r.Range(1, 3)
			sp.Fabric.Leaves = 0
			loads := []float64{0.05 + r.Float64()*0.3, 0.2 + r.Float64()}
			rows, knees, o, err := RackSweepObserved(sp, []int{rk}, loads, packets, seed, 1, ospec)
			got, gotO, gotErr = []any{rows, knees}, o, err
			for _, row := range rows {
				seen.marked += row.Marked
				seen.dropped += row.Dropped
			}
			rows, knees, o, err = refRackSweep(sp, rk, loads, packets, seed, ospec)
			want, wantO, wantErr = []any{rows, knees}, o, err
		case 2:
			if sp.Fabric.Leaves < 2 {
				sp.Fabric.Leaves, sp.Fabric.Spines = 0, 0
			}
			outages := []sim.Time{0, sim.Time(r.Range(1, 40)) * sim.Microsecond}
			// Every other fail configuration runs the sweep at its fixed
			// load and outage start; the rest drive its cell at a random
			// load and start.
			load, start := 0.05+r.Float64()*0.3, sim.Time(r.Range(1, 20))*sim.Microsecond
			var rows []FailRow
			var o *obs.Observer
			var err error
			if c%6 == 2 {
				load, start = failLoad, failOutageStart
				rows, o, err = FailSweepObserved(sp, outages, packets, seed, 1, ospec)
			} else {
				rows, o, err = refFailSweep(sp, outages, ospec, func(sp spec.Spec, arch string, dur sim.Time, shape loadShape, oc *obs.Cell) (FailRow, error) {
					fc, err := runFabricCell(sp, arch, shape, cellOpts{load: load, packets: packets,
						eventBudget: failEventBudget, seed: seed, outage: &outageWindow{start: start, end: start + dur}}, oc)
					if err != nil {
						return FailRow{}, err
					}
					return fc.failRow(dur), nil
				})
			}
			got, gotO, gotErr = []any{rows}, o, err
			for _, row := range rows {
				seen.outage += int(row.OutageDrops)
				seen.burst += int(row.BurstDrops)
				seen.retransmits += int(row.Retransmits)
				seen.failed += row.Failed
			}
			rows, o, err = refFailSweep(sp, outages, ospec, func(sp spec.Spec, arch string, dur sim.Time, shape loadShape, oc *obs.Cell) (FailRow, error) {
				return refFailCell(sp, arch, dur, shape, packets, seed, load, start, oc)
			})
			want, wantO, wantErr = []any{rows}, o, err
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: err = %v, reference err = %v", name, gotErr, wantErr)
		}
		if gotErr != nil {
			t.Logf("%s: both rejected: %v / %v", name, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rows/knees differ from the reference\n got %+v\nwant %+v", name, got, want)
		}
		if g, w := gotO.MetricsCSV(), wantO.MetricsCSV(); g != w {
			t.Fatalf("%s: metrics differ from the reference\n got %s\nwant %s", name, g, w)
		}
	}
	t.Logf("exercised: %+v", seen)
	if seen.marked == 0 || seen.dropped == 0 || seen.outage == 0 || seen.burst == 0 ||
		seen.retransmits == 0 || seen.failed == 0 {
		t.Errorf("random configurations left a path unexercised: %+v", seen)
	}
}

// eventLog is a sim.Probe that records an engine's event sequence: every
// schedule, fire and cancel with its instant, in order.
type eventLog []eventRec

type eventRec struct {
	kind byte // 's'chedule, 'f'ire or 'c'ancel
	when sim.Time
}

func (l *eventLog) OnSchedule(when sim.Time) { *l = append(*l, eventRec{'s', when}) }
func (l *eventLog) OnFire(when sim.Time)     { *l = append(*l, eventRec{'f', when}) }
func (l *eventLog) OnCancel(when sim.Time)   { *l = append(*l, eventRec{'c', when}) }

// TestFabricCellEventsMatchReference holds the cell transport to the
// reference cells event for event, not only in counts: over random
// ECN-marking load and rack configurations, the sequence of schedules,
// fires and cancels on every cell engine, with their instants, must equal
// the reference's. It pins orderings no row or metric shows, such as a
// delivery submitting its frame to the RX driver before it echoes the
// ECN mark to the sender, at 1, 10 and 40 Gb/s.
func TestFabricCellEventsMatchReference(t *testing.T) {
	defer func() { cellProbe = nil }()
	r := sim.NewRand(0xec4)
	marked := 0
	for c := 0; c < 12; c++ {
		sp := randomCellSpec(r)
		sp.Fabric.ECNThreshold, sp.Fabric.ECNBackoffNs = 1, r.Range(100, 2000)
		// On a slow link a frame marked behind another one reaches a
		// receiver that has finished the earlier frame, so both the RX
		// completion and the echo are scheduled at its delivery.
		sp.NetworkGbps = []int{1, 10, 40}[c%3]
		seed := r.Uint64() >> 40
		loads := []float64{0.1 + r.Float64()*0.3, 0.4 + r.Float64()}
		var got, want eventLog
		var gotErr, wantErr error
		cellProbe = &got
		if c%2 == 0 {
			packets := r.Range(40, 120)
			_, _, _, gotErr = LoadSweepObserved(sp, loads, packets, seed, 1, obs.Spec{})
			cellProbe = &want
			_, _, _, wantErr = refLoadSweep(sp, loads, packets, seed, obs.Spec{})
		} else {
			rk := r.Range(1, 3)
			sp.Fabric.Leaves = 0
			packets := r.Range(40, 120)
			var rows []RackRow
			rows, _, _, gotErr = RackSweepObserved(sp, []int{rk}, loads, packets, seed, 1, obs.Spec{})
			for _, row := range rows {
				marked += row.Marked
			}
			cellProbe = &want
			_, _, _, wantErr = refRackSweep(sp, rk, loads, packets, seed, obs.Spec{})
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("config %d: err = %v, reference err = %v", c, gotErr, wantErr)
		}
		if len(got) == 0 {
			t.Fatalf("config %d: no events recorded", c)
		}
		for i := 0; i < len(got) || i < len(want); i++ {
			if i >= len(got) || i >= len(want) {
				t.Fatalf("config %d: %d events, reference %d", c, len(got), len(want))
			}
			if got[i] != want[i] {
				t.Fatalf("config %d: event %d is %c@%v, reference %c@%v", c, i, got[i].kind, got[i].when, want[i].kind, want[i].when)
			}
		}
	}
	if marked == 0 {
		t.Error("no configuration marked a frame")
	}
}

// TestFabricCellAllocsPerPacket holds the warm per-packet chain of a
// non-ARQ cell to (almost) no allocations: the mallocs a cell adds when
// its packet count doubles, per added packet, stay at or below 0.03 for a
// many-to-many cell with ECN pacing and for two incast cells: one below
// the knee and one past it, whose RX queue backs up by hundreds of frames.
// The one past the knee adds at most 40 B per added packet and the
// many-to-many cell at most 48 B: the runs share one shape, so its job
// pool is warm. What remains is set-up and the queues' amortised growth.
func TestFabricCellAllocsPerPacket(t *testing.T) {
	const n = 2000
	for _, c := range []struct {
		name     string
		incast   bool
		load     float64
		maxBytes float64 // per added packet; 0 leaves bytes unchecked
	}{
		{"rack", false, 0.3, 48},
		{"incast", true, 0.15, 0},
		{"incast backlog", true, 0.3, 40},
	} {
		sp := spec.TableOne()
		sp.Load.Hosts = 8
		sp.Fabric.Leaves, sp.Fabric.Spines = 2, 2
		sp.Fabric.ECNThreshold = 1
		shape, err := resolveLoad(sp.Load, nil, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := func(packets int) {
			if _, err := runFabricCell(sp, "NetDIMM", shape, cellOpts{load: c.load, packets: packets,
				eventBudget: 4_000_000, seed: 1, incast: c.incast}, nil); err != nil {
				t.Fatal(err)
			}
		}
		allocs := func(packets int) float64 { return testing.AllocsPerRun(1, func() { run(packets) }) }
		if per := (allocs(2*n) - allocs(n)) / n; per > 0.03 {
			t.Errorf("%s: %.3f mallocs per added packet, want <= 0.03", c.name, per)
		}
		if c.maxBytes == 0 {
			continue
		}
		bytes := func(packets int) float64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			run(packets) // warm, as AllocsPerRun does
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(packets)
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc - before.TotalAlloc)
		}
		per := (bytes(2*n) - bytes(n)) / n
		t.Logf("%s: %.1f B per added packet", c.name, per)
		if per > c.maxBytes {
			t.Errorf("%s: %.1f B per added packet, want <= %g", c.name, per, c.maxBytes)
		}
	}
}

// TestCellCountsConservation checks the frame- and message-conservation
// equations on balanced tallies and on each of them with one frame or
// message lost.
func TestCellCountsConservation(t *testing.T) {
	for _, c := range []struct {
		name string
		n    cellCounts
		ok   bool
	}{
		{"balanced", cellCounts{offered: 10, delivered: 7, dropped: 3}, true},
		{"lost frame", cellCounts{offered: 10, delivered: 7, dropped: 2}, false},
		{"phantom delivery", cellCounts{offered: 10, delivered: 8, dropped: 3}, false},
		{"arq balanced", cellCounts{arq: true, offered: 10, delivered: 9, failed: 2, failedDelivered: 1,
			retransmits: 4, duplicates: 2, dropped: 3}, true},
		{"arq lost packet", cellCounts{arq: true, offered: 10, delivered: 8, failed: 1,
			retransmits: 4, duplicates: 2, dropped: 4}, false},
		{"arq lost transmission", cellCounts{arq: true, offered: 10, delivered: 9, failed: 2, failedDelivered: 1,
			retransmits: 4, duplicates: 2, dropped: 2}, false},
		{"arq unseen duplicate", cellCounts{arq: true, offered: 10, delivered: 10,
			retransmits: 1, duplicates: 0, dropped: 0}, false},
		{"collective balanced", cellCounts{offered: 12, delivered: 11, dropped: 1,
			msgSent: 4, msgDelivered: 3, msgOpen: 1}, true},
		{"collective lost frame", cellCounts{offered: 12, delivered: 11, dropped: 0,
			msgSent: 4, msgDelivered: 3, msgOpen: 1}, false},
		{"collective lost message", cellCounts{offered: 12, delivered: 12, dropped: 0,
			msgSent: 4, msgDelivered: 3, msgOpen: 0}, false},
	} {
		if err := c.n.check(); (err == nil) != c.ok {
			t.Errorf("%s: check() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestCellFreesDroppedFlights runs a many-to-many cell that tail-drops in
// its switches and one whose spine goes down mid-run, and checks that the
// cell's flight slab ends with every slot free. The slab grows only when
// every slot holds a live frame, so its length is then the peak count of
// frames in flight; a frame dropped past its uplink that kept its slot
// would leave the slab at least as long as the fabric's drops.
func TestCellFreesDroppedFlights(t *testing.T) {
	for _, c := range []struct {
		name   string
		outage *outageWindow
	}{
		{"tail drops", nil},
		{"spine outage", &outageWindow{start: 20 * sim.Microsecond, end: 60 * sim.Microsecond}},
	} {
		sp := spec.TableOne()
		sp.Load.Hosts, sp.Load.PortBuffer = 16, 4
		sp.Fabric.Leaves, sp.Fabric.Spines = 2, 1
		shape, err := resolveLoad(sp.Load, nil, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := runFabricCell(sp, "NetDIMM", shape, cellOpts{load: 0.9, packets: 3000,
			eventBudget: 4_000_000, seed: 5, outage: c.outage}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fs, slab := cell.fstats, &cell.flights
		fabricDrops := int(fs.Dropped + fs.OutageDrops + fs.BurstDrops)
		t.Logf("%s: %d fabric drops, slab of %d slots", c.name, fabricDrops, len(slab.items))
		if fabricDrops == 0 {
			t.Fatalf("%s: the cell dropped nothing in the fabric", c.name)
		}
		if len(slab.free) != len(slab.items) {
			t.Errorf("%s: %d of %d flight slots still held after the cell drained", c.name, len(slab.items)-len(slab.free), len(slab.items))
		}
		if len(slab.items) >= fabricDrops {
			t.Errorf("%s: slab of %d slots for %d fabric drops: dropped frames kept their slots", c.name, len(slab.items), fabricDrops)
		}
	}
}

// TestCellPricesMatchPerFrame holds an analytic cell's price table to
// pricing every frame: for dNIC and iNIC under table1 and pcie-gen3, the
// service time each TX and RX queue charges for sizes 1..MTU, in shuffled
// order with random IDs and birth times, equals a fresh machine's TX or RX
// total, and so do the table's TX and RX rows. A NetDIMM cell, whose
// drivers hold state, builds no table.
func TestCellPricesMatchPerFrame(t *testing.T) {
	gen3 := spec.TableOne()
	gen3.PCIe = "x8 PCIe Gen3"
	r := sim.NewRand(38)
	sizes := make([]int, nic.MTU)
	for i := range sizes {
		sizes[i] = i + 1
	}
	for _, sp := range []spec.Spec{spec.TableOne(), gen3} {
		d := sp.MustDerive()
		for _, arch := range Archs {
			var c cellTransport
			if err := c.init(d, arch, 4, false, 1, 1000, 4, &jobPool{}, nil); err != nil {
				t.Fatal(err)
			}
			if arch == "NetDIMM" {
				if c.prices != nil || c.tx[0].price != nil || c.rx[0].price != nil {
					t.Errorf("%s %s: the cell built a price table", sp.PCIe, arch)
				}
				continue
			}
			ref, err := newMachine(d, arch, 0)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				for i := len(sizes) - 1; i > 0; i-- {
					j := r.Intn(i + 1)
					sizes[i], sizes[j] = sizes[j], sizes[i]
				}
				for _, size := range sizes {
					p := nic.Packet{ID: r.Uint64(), Size: size, Born: sim.Time(r.Int63n(1 << 50))}
					tx, rx := &c.tx[r.Intn(len(c.tx))], &c.rx[r.Intn(len(c.rx))]
					var gotTX, gotRX sim.Time
					if r.Intn(2) == 0 {
						gotTX, gotRX = tx.cost(p), rx.cost(p)
					} else {
						gotRX, gotTX = rx.cost(p), tx.cost(p)
					}
					wantTX, wantRX := ref.TX(p).Total(), ref.RX(p).Total()
					if gotTX != wantTX || gotRX != wantRX {
						t.Fatalf("%s %s pass %d size %d: TX %v RX %v, want TX %v RX %v", sp.PCIe, arch, pass, size, gotTX, gotRX, wantTX, wantRX)
					}
					if c.prices[0][size] != wantTX || c.prices[1][size] != wantRX {
						t.Fatalf("%s %s size %d: table TX %v RX %v, want TX %v RX %v",
							sp.PCIe, arch, size, c.prices[0][size], c.prices[1][size], wantTX, wantRX)
					}
				}
			}
		}
	}
}

// TestDriverQueueOrderAndDepth serves frames and an ECN-pacer stall on one
// driver queue: in order, one at a time, with the job in service counted
// in the depth until it has been handed on.
func TestDriverQueueOrderAndDepth(t *testing.T) {
	c := &cellTransport{eng: sim.NewEngine(), link: spec.TableOne().MustDerive().Link}
	q := &driverQueue{t: c, rx: true}
	q.finishFn = q.finish
	var log []string
	var depths []int
	q.onDepth = func(_ sim.Time, d int) { depths = append(depths, d) }
	c.cleared = func(fr *frame) {
		log = append(log, fmt.Sprintf("%d@%d/%d", fr.tag, c.eng.Now(), q.jobs.Len()))
		if fr.tag == 0 {
			q.stall(5, func() { log = append(log, fmt.Sprintf("stall@%d/%d", c.eng.Now(), q.jobs.Len())) })
		}
	}
	for i := 0; i < 3; i++ {
		q.push(job{fr: frame{p: nic.Packet{Size: 64}, tag: i}, service: 10})
	}
	c.eng.Run()
	want := []string{"0@10/3", "1@20/3", "2@30/2", "stall@35/1"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("served %v, want %v", log, want)
	}
	if fmt.Sprint(depths) != "[1 2 3 4 0]" || q.maxDepth != 4 || c.delivered != 3 {
		t.Fatalf("depth samples %v (max %d), %d delivered, want [1 2 3 4 0] (max 4), 3", depths, q.maxDepth, c.delivered)
	}
}

// BenchmarkFabricCell times one cell of the transport's two bench shapes
// per iteration and architecture at seed 3: a 32-to-1 incast past the
// knee, and a 128-host two-rack clos with ECN pacing. It reports host time
// and bytes allocated per offered packet, set-up included.
func BenchmarkFabricCell(b *testing.B) {
	const packets = 4000
	rack := spec.TableOne()
	rack.Load.Hosts = 128
	rack.Fabric.Leaves, rack.Fabric.Spines = 2, rackSpines(128, 2)
	rack.Fabric.ECNThreshold = fabric.DefaultECNThreshold
	incast := spec.TableOne()
	incast.Load.Hosts = 32
	for _, w := range []struct {
		name   string
		sp     spec.Spec
		load   float64
		incast bool
	}{
		{"incast", incast, 0.22, true},
		{"rack", rack, 0.2, false},
	} {
		shape, err := resolveLoad(w.sp.Load, nil, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		opts := cellOpts{load: w.load, packets: packets, eventBudget: rackEventBudget, seed: 3, incast: w.incast}
		for _, arch := range Archs {
			b.Run(w.name+"/"+arch, func(b *testing.B) {
				b.ReportAllocs()
				run := func() {
					if _, err := runFabricCell(w.sp, arch, shape, opts, nil); err != nil {
						b.Fatal(err)
					}
				}
				run() // warm
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				elapsed := b.Elapsed()
				runtime.ReadMemStats(&after)
				pkts := float64(b.N * packets)
				b.ReportMetric(float64(elapsed.Nanoseconds())/pkts, "ns/pkt")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/pkts, "B/pkt")
			})
		}
	}
}

// TestJobPoolSharedAcrossCells runs incast cells past the knee on one
// sweep shape. The first cell's queues fill a free list that goes back to
// the shape's pool when the cell ends; a later cell whose backlog is no
// deeper takes that list and makes no new chunk (every chunk is free
// again once a cell has run), so a sweep keeps one cell's peak of queued
// jobs, not the sum over its cells.
func TestJobPoolSharedAcrossCells(t *testing.T) {
	sp := spec.TableOne()
	sp.Load.Hosts = 8
	shape, err := resolveLoad(sp.Load, nil, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(load float64) int {
		c, err := runFabricCell(sp, "dNIC", shape, cellOpts{load: load, packets: 3000,
			eventBudget: 4_000_000, seed: 2, incast: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c.rxMax
	}
	chunks := func() int {
		if len(shape.jobs.lists) != 1 {
			t.Fatalf("pool holds %d free lists after a cell, want 1", len(shape.jobs.lists))
		}
		return shape.jobs.lists[0].Len()
	}
	peak := run(0.3)
	first := chunks()
	if peak < 128 || first == 0 {
		t.Fatalf("first cell: RX backlog %d, %d chunks; want a backlog of 128 or more jobs, in chunks", peak, first)
	}
	for _, load := range []float64{0.3, 0.15} {
		if p := run(load); p > peak {
			t.Fatalf("load %g: RX backlog %d deeper than the first cell's %d", load, p, peak)
		}
		if got := chunks(); got != first {
			t.Errorf("load %g: pool holds %d chunks after the cell, want the first cell's %d", load, got, first)
		}
	}
}
