package workload

import (
	"netdimm/internal/addrmap"
	"netdimm/internal/memctrl"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
)

// Injector issues memory requests into a controller at a fixed
// inter-request delay — the Intel Memory Latency Checker methodology of
// the paper's Fig. 5 ("We use MLC to inject dummy memory requests to the
// memory subsystem at different rates. We set the ratio of memory read to
// write requests to 1.").
//
// Each of its Parallelism threads behaves like an MLC load thread: it
// issues its next request one Delay after its previous one entered the
// controller's queue, so a thread whose request waits behind a full queue
// stalls with it.
type Injector struct {
	Eng *sim.Engine
	MC  *memctrl.Controller
	// Delay between injected requests (the Fig. 5 X axis). Zero means
	// back-to-back maximum pressure.
	Delay sim.Time
	// ReadFraction in [0,1]; MLC uses 0.5 (1:1 R/W).
	ReadFraction float64
	// Base and WorkingSet bound the address range touched.
	Base       int64
	WorkingSet int64
	// Parallelism is the number of independent load threads (MLC spawns
	// one per core); each runs its own issue loop at Delay.
	Parallelism int

	rng     *sim.Rand
	stopped bool
	lat     stats.Histogram
	issued  uint64
	tickFn  func()                 // in.tick
	nextFn  func()                 // in.next, a request's Admitted
	observe func(memctrl.Response) // records a read's latency
}

// NewInjector returns a seeded injector over [base, base+workingSet).
func NewInjector(eng *sim.Engine, mc *memctrl.Controller, delay sim.Time, readFrac float64, base, workingSet int64, seed uint64) *Injector {
	if workingSet < addrmap.CachelineSize {
		workingSet = addrmap.CachelineSize
	}
	in := &Injector{
		Eng: eng, MC: mc, Delay: delay, ReadFraction: readFrac,
		Base: base, WorkingSet: workingSet, rng: sim.NewRand(seed),
	}
	in.tickFn, in.nextFn = in.tick, in.next
	in.observe = func(r memctrl.Response) { in.lat.Observe(r.Latency()) }
	return in
}

// Start begins injecting; requests continue until Stop.
func (in *Injector) Start() {
	in.stopped = false
	threads := in.Parallelism
	if threads < 1 {
		threads = 1
	}
	for i := 0; i < threads; i++ {
		in.tick()
	}
}

// Stop halts injection after the current scheduling round.
func (in *Injector) Stop() { in.stopped = true }

// Issued returns the number of requests issued.
func (in *Injector) Issued() uint64 { return in.issued }

// ReadLatency exposes the read-latency histogram: each read's latency
// from its issue, queue wait included.
func (in *Injector) ReadLatency() *stats.Histogram { return &in.lat }

// tick issues one thread's next request.
func (in *Injector) tick() {
	if in.stopped {
		return
	}
	lines := in.WorkingSet / addrmap.CachelineSize
	addr := in.Base + in.rng.Int63n(lines)*addrmap.CachelineSize
	write := in.rng.Float64() >= in.ReadFraction
	req := memctrl.Request{Addr: addr, Write: write, Bytes: addrmap.CachelineSize, Admitted: in.nextFn}
	if !write {
		req.Done = in.observe
	}
	in.issued++
	in.MC.Submit(&req)
}

// next schedules the thread's next request once its last one is queued.
func (in *Injector) next() {
	gap := in.Delay
	if gap <= 0 {
		gap = sim.Nanosecond // max pressure: one request per ns of CPU issue
	}
	in.Eng.Schedule(gap, in.tickFn)
}
