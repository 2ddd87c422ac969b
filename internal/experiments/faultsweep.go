package experiments

import (
	"fmt"

	"netdimm/internal/core"
	"netdimm/internal/driver"
	"netdimm/internal/ethernet"
	"netdimm/internal/fault"
	"netdimm/internal/memctrl"
	"netdimm/internal/nic"
	"netdimm/internal/nvdimmp"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
)

// DefaultLossGrid is the default frame-loss axis: per-traversal drop
// probabilities from lossless to 20%.
var DefaultLossGrid = []float64{0, 0.001, 0.01, 0.05, 0.1, 0.2}

// faultPacketSize is the payload size of every fault-sweep packet.
const faultPacketSize = nic.MTU

// faultEventBudget bounds each fault-sweep cell's engine via the
// watchdog, so a pathological configuration (unlimited retries at 100%
// loss) aborts with a diagnostic error instead of spinning.
const faultEventBudget = 2_000_000

// FaultRow is one (architecture, loss rate) cell of the fault sweep:
// one-way latency statistics over the delivered packets, plus the fault and
// recovery tallies of the cell's injector.
type FaultRow struct {
	Arch     string
	LossRate float64
	Mean     sim.Time
	P50      sim.Time
	P99      sim.Time
	// Delivered counts packets that completed end to end (including any
	// NVDIMM-P recovery on the NetDIMM receive path); Failed counts packets
	// abandoned after the retry cap.
	Delivered int
	Failed    int
	Counters  stats.FaultCounters
	// Hist holds the cell's full latency sample set, so callers can merge
	// cells (see FaultTails) or compute percentiles beyond P50/P99.
	Hist *stats.Histogram
}

// FaultTails merges every rate's sample set per architecture (via
// stats.Histogram.Merge) and reports the cross-rate latency tail, in
// Archs order. Architectures with no delivered packets are
// skipped.
type FaultTail struct {
	Arch     string
	Count    int
	Mean     sim.Time
	P50, P99 sim.Time
}

// FaultTails aggregates sweep rows into per-architecture tails.
func FaultTails(rows []FaultRow) []FaultTail {
	merged := make(map[string]*stats.Histogram)
	for _, r := range rows {
		if r.Hist == nil {
			continue
		}
		if merged[r.Arch] == nil {
			merged[r.Arch] = &stats.Histogram{}
		}
		merged[r.Arch].Merge(r.Hist)
	}
	var tails []FaultTail
	for _, arch := range Archs {
		h := merged[arch]
		if h == nil || h.Count() == 0 {
			continue
		}
		tails = append(tails, FaultTail{
			Arch:  arch,
			Count: h.Count(),
			Mean:  h.Mean(),
			P50:   h.Percentile(50),
			P99:   h.Percentile(99),
		})
	}
	return tails
}

// FaultSweepObserved measures one-way latency degradation under injected
// frame loss for the three NIC architectures. For each (arch, rate) cell
// it runs an event-driven delivery loop on a fresh engine: driver TX cost,
// then the lossy wire with NIC retransmit/backoff recovery, then driver RX;
// on the NetDIMM receive path an additional NVDIMM-P header read runs
// through the RDY-timeout recovery machinery when the spec injects memory
// faults. Each cell delivers packets packets (DefaultPackets when not
// positive) and draws its frame loss at its swept rate; every other fault
// knob (corruption, port drops, RDY loss, retry policy) comes from sp.
// Empty rates select DefaultLossGrid; a rate outside [0,1] is an error.
//
// Cells are deterministic: each builds its own engine and injector from a
// per-cell seed, so results are identical sequentially and in parallel.
// When ospec enables collection, each (arch, rate) cell gets a Cell
// labelled "faultsweep/<arch>/loss=<rate>" with retransmit/backoff and
// NVDIMM-P recovery spans, path outcome counters, engine probes and the
// cell's fault tallies. A zero ospec yields a nil observer and no
// instrumentation.
func FaultSweepObserved(sp spec.Spec, rates []float64, packets int, seed uint64, parallelism int, ospec obs.Spec) ([]FaultRow, *obs.Observer, error) {
	if packets <= 0 {
		packets = DefaultPackets
	}
	if len(rates) == 0 {
		rates = DefaultLossGrid
	}
	for _, r := range rates {
		if !(r >= 0 && r <= 1) {
			return nil, nil, fmt.Errorf("faultsweep: loss rate %g must be a probability in [0,1]", r)
		}
	}
	axes := func(i int) (string, float64) { return Archs[i/len(rates)], rates[i%len(rates)] }
	return runCells(len(Archs)*len(rates), parallelism, ospec, func(i int) string {
		arch, rate := axes(i)
		return fmt.Sprintf("faultsweep/%s/loss=%g", arch, rate)
	}, func(i int, oc *obs.Cell) (FaultRow, error) {
		arch, rate := axes(i)
		row, err := faultCell(sp, arch, rate, packets, seed+uint64(i)*0x9e3779b97f4a7c15, oc)
		if err != nil {
			return FaultRow{}, fmt.Errorf("faultsweep: %s at loss %g: %w", arch, rate, err)
		}
		return row, nil
	})
}

// faultCell runs one (arch, rate) cell from its own seed.
func faultCell(sp spec.Spec, arch string, rate float64, packets int, cellSeed uint64, oc *obs.Cell) (FaultRow, error) {
	d := sp.MustDerive()
	fspec := d.Spec.Fault
	inj := fault.NewInjector(fspec, cellSeed)
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: faultEventBudget})

	tx, rx, reader, err := faultEndpoints(d, arch, fspec, eng, inj, cellSeed)
	if err != nil {
		return FaultRow{}, err
	}

	p := nic.Packet{Size: faultPacketSize}
	txCost := tx.TX(p).Total()
	rxCost := rx.RX(p).Total()
	path := ethernet.LossyPath{Fabric: d.Fabric(d.SwitchLatency), Inj: inj, LossRate: rate,
		Obs: ethernet.NewPathObs(oc.Metrics(), arch+".path")}
	rt := &nic.Retransmitter{Eng: eng, Policy: fspec.NetPolicy(), Counters: &inj.Counters,
		Trace: oc.Track(arch + "/retrans")}
	if reader != nil {
		reader.Observe(oc.Track(arch + "/nvdimmp"))
	}
	obs.NewEngineProbe(oc.Metrics(), arch+".engine").Attach(eng)

	// The inter-packet gap only spaces sends out; it is not part of any
	// latency sample.
	const gap = 100 * sim.Nanosecond
	var hist stats.Histogram
	delivered, failed := 0, 0

	var send func(i int)
	next := func(i int) { eng.Schedule(gap, func() { send(i + 1) }) }
	send = func(i int) {
		if i >= packets {
			return
		}
		start := eng.Now()
		rt.Send(
			func(int) (fault.Outcome, sim.Time) { return path.Attempt(p.Size) },
			func(attempts int, err error) {
				if err != nil {
					failed++
					next(i)
					return
				}
				// Wire time plus every retransmit timeout the packet paid.
				sample := txCost + (eng.Now() - start) + rxCost
				if reader == nil {
					hist.Observe(sample)
					delivered++
					next(i)
					return
				}
				// NetDIMM receive path with memory faults armed: the header
				// read goes through the NVDIMM-P recovery machinery.
				reader.Read(int64(i%32)*2048, func(lat sim.Time, err error) {
					if err != nil {
						failed++
					} else {
						hist.Observe(sample + lat)
						delivered++
					}
					next(i)
				})
			})
	}
	send(0)
	eng.Run()
	if err := eng.Err(); err != nil {
		return FaultRow{}, err
	}
	fault.PublishCounters(oc.Metrics(), arch+".fault", inj.Counters)

	return FaultRow{
		Arch:      arch,
		LossRate:  rate,
		Mean:      hist.Mean(),
		P50:       hist.Percentile(50),
		P99:       hist.Percentile(99),
		Delivered: delivered,
		Failed:    failed,
		Counters:  inj.Counters,
		Hist:      &hist,
	}, nil
}

// faultEndpoints builds the cell's tx/rx machines and, for the NetDIMM
// architecture with memory faults injected, the recovering NVDIMM-P reader
// used on the receive path.
func faultEndpoints(d *spec.Derived, arch string, fspec fault.Spec, eng *sim.Engine, inj *fault.Injector, seed uint64) (tx, rx driver.Machine, reader *memctrl.AsyncReader, err error) {
	if tx, err = newMachine(d, arch, 2*seed+1); err != nil {
		return nil, nil, nil, err
	}
	if rx, err = newMachine(d, arch, 2*seed+2); err != nil {
		return nil, nil, nil, err
	}
	if arch == "NetDIMM" && fspec.MemEnabled() {
		cfg := d.Core
		cfg.Seed = seed
		dev := core.NewDevice(eng, cfg)
		tracker := nvdimmp.NewTracker(cfg.Protocol, 64)
		tracker.SetTimeout(fspec.MemDeadline())
		reader = memctrl.NewAsyncReader(eng, tracker,
			func(addr int64, done func()) {
				dev.HostReadLine(addr, func(bool, sim.Time) { done() })
			}, inj, fspec.MemPolicy())
	}
	return tx, rx, reader, nil
}
