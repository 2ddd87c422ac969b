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

// FaultSweepArchs are the architectures compared by the fault sweep, in
// output order.
var FaultSweepArchs = []string{"dNIC", "iNIC", "NetDIMM"}

// FaultSweepConfig parameterises one fault sweep.
type FaultSweepConfig struct {
	// Size is the packet payload size in bytes (default nic.MTU).
	Size int
	// Packets is how many packets each cell delivers (default 200).
	Packets int
	// EventBudget bounds each cell's engine via the watchdog, so a
	// pathological configuration (unlimited retries at 100% loss) aborts
	// with a diagnostic error instead of spinning (default 2,000,000).
	EventBudget uint64
	// Seed perturbs every cell's fault stream.
	Seed uint64
}

// DefaultFaultSweepConfig returns the sweep defaults.
func DefaultFaultSweepConfig() FaultSweepConfig {
	return FaultSweepConfig{Size: nic.MTU, Packets: 200, EventBudget: 2_000_000}
}

func (c FaultSweepConfig) withDefaults() FaultSweepConfig {
	def := DefaultFaultSweepConfig()
	if c.Size <= 0 {
		c.Size = def.Size
	}
	if c.Packets <= 0 {
		c.Packets = def.Packets
	}
	if c.EventBudget == 0 {
		c.EventBudget = def.EventBudget
	}
	return c
}

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
// FaultSweepArchs order. Architectures with no delivered packets are
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
	for _, arch := range FaultSweepArchs {
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
// faults. The sweep overrides only Spec.Fault.DropProb per cell — every
// other fault knob (corruption, port drops, RDY loss, retry policy) comes
// from sp.
//
// Cells are deterministic: each builds its own engine and injector from a
// per-cell seed, so results are identical sequentially and in parallel.
// When ospec enables collection, each (arch, rate) cell gets a Cell
// labelled "faultsweep/<arch>/loss=<rate>" with retransmit/backoff and
// NVDIMM-P recovery spans, path outcome counters, engine probes and the
// cell's fault tallies. A zero ospec yields a nil observer and no
// instrumentation.
func FaultSweepObserved(sp spec.Spec, rates []float64, cfg FaultSweepConfig, parallelism int, ospec obs.Spec) ([]FaultRow, *obs.Observer, error) {
	cfg = cfg.withDefaults()
	axes := func(i int) (string, float64) { return FaultSweepArchs[i/len(rates)], rates[i%len(rates)] }
	return runCells(len(FaultSweepArchs)*len(rates), parallelism, ospec, func(i int) string {
		arch, rate := axes(i)
		return fmt.Sprintf("faultsweep/%s/loss=%g", arch, rate)
	}, func(i int, oc *obs.Cell) (FaultRow, error) {
		arch, rate := axes(i)
		row, err := faultCell(sp, arch, rate, cfg, uint64(i), oc)
		if err != nil {
			return FaultRow{}, fmt.Errorf("faultsweep: %s at loss %g: %w", arch, rate, err)
		}
		return row, nil
	})
}

// faultCell runs one (arch, rate) cell.
func faultCell(sp spec.Spec, arch string, rate float64, cfg FaultSweepConfig, cell uint64, oc *obs.Cell) (FaultRow, error) {
	d := sp.MustDerive()
	fspec := d.Spec.Fault
	fspec.DropProb = rate

	cellSeed := cfg.Seed + cell*0x9e3779b97f4a7c15
	inj := fault.NewInjector(fspec, cellSeed)
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: cfg.EventBudget})

	tx, rx, reader, err := faultEndpoints(d, arch, fspec, eng, inj, cellSeed)
	if err != nil {
		return FaultRow{}, err
	}

	p := nic.Packet{Size: cfg.Size}
	txCost := tx.TX(p).Total()
	rxCost := rx.RX(p).Total()
	path := ethernet.LossyPath{Fabric: d.Fabric(d.SwitchLatency), Inj: inj,
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
		if i >= cfg.Packets {
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
	switch arch {
	case "dNIC":
		return d.NewDNIC(false), d.NewDNIC(false), nil, nil
	case "iNIC":
		return d.NewINIC(false), d.NewINIC(false), nil, nil
	case "NetDIMM":
		ndTX, err := d.NewNetDIMM(2*seed + 1)
		if err != nil {
			return nil, nil, nil, err
		}
		ndRX, err := d.NewNetDIMM(2*seed + 2)
		if err != nil {
			return nil, nil, nil, err
		}
		if fspec.MemEnabled() {
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
		return ndTX, ndRX, reader, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown architecture %q", arch)
	}
}
