package experiments

import (
	"fmt"
	"math"

	"netdimm/internal/collective"
	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// The collective sweep measures the distributed-ML traffic pattern the
// paper never did: N ranks executing Ring AllReduce, binomial-tree
// Broadcast or Reduce-Scatter over the switched fabric, every rank both
// sending and receiving under a per-step dependency graph instead of an
// open-loop arrival process. The axes are architecture x operation x rank
// count; the headline metric is operation completion time (the latest
// rank's last step), with per-step skew, wire bytes and link utilisation
// alongside — the numbers a training-job scheduler actually budgets.

// DefaultCollRankGrid is the default rank-count axis: powers of two from
// one small ring to a rack-scale 128, so the ring's linear step count and
// the tree's logarithmic depth both show their shape.
var DefaultCollRankGrid = []int{4, 8, 16, 32, 64, 128}

// minFrameBytes floors every collective wire frame at the classic
// minimum Ethernet frame size, so a zero-byte dependency token still pays
// a realistic wire cost.
const minFrameBytes = 64

// DefaultCollPortBuffer is the default fabric port depth for collective
// cells. Collective steps burst a whole chunk at once from every rank
// simultaneously, so the sweep defaults deeper than the load sweep's 64:
// a dropped frame does not just lengthen a tail here, it deadlocks the
// dependency graph.
const DefaultCollPortBuffer = 256

// CollSweepConfig parameterises one collective sweep; operation, payload
// and chunking come from the specification's Collective block, buffering
// from its Load block.
type CollSweepConfig struct {
	// EventBudget bounds each cell's engine via the watchdog (default
	// 8,000,000).
	EventBudget uint64
	// Seed perturbs the NetDIMM device seeds and every rank's payload
	// contents.
	Seed uint64
}

// DefaultCollSweepConfig returns the sweep defaults.
func DefaultCollSweepConfig() CollSweepConfig {
	return CollSweepConfig{EventBudget: 8_000_000}
}

func (c CollSweepConfig) withDefaults() CollSweepConfig {
	if c.EventBudget == 0 {
		c.EventBudget = DefaultCollSweepConfig().EventBudget
	}
	return c
}

// CollRow is one (architecture, operation, ranks) cell of the collective
// sweep.
type CollRow struct {
	Arch string
	// Op is the collective operation ("allreduce", "broadcast",
	// "reducescatter").
	Op string
	// Ranks is the cell's rank count; each rank is one fabric host.
	Ranks int
	// PayloadBytes is each rank's vector size.
	PayloadBytes int
	// Steps is the longest rank schedule (2(N-1) for the allreduce ring,
	// N-1 for reduce-scatter, the root's fan-out for the tree).
	Steps int
	// Completion is the operation's completion time: the instant the last
	// rank finishes its last step.
	Completion sim.Time
	// StepSkew is the worst per-step straggler spread across ranks.
	StepSkew sim.Time
	// BytesOnWire totals delivered frame bytes including Ethernet overhead.
	BytesOnWire int64
	// Frames counts delivered wire frames; Delivered counts completed
	// step messages (a message fragments into ceil(bytes/chunk) frames).
	Frames    int
	Delivered int
	// Dropped counts frames tail-dropped at any hop; any drop stalls the
	// dependency graph and fails the cell.
	Dropped int
	// Marked counts frames freshly ECN-marked at any fabric queue (zero
	// unless the spec's Fabric block enables ECN).
	Marked int
	// LinkUtilization is delivered wire occupancy averaged over all rank
	// links and the cell's makespan, in [0,1].
	LinkUtilization float64
}

// CollSweep runs the collective sweep: for every (architecture, operation,
// ranks) cell it executes the operation's full dependency graph over the
// spec's fabric and reports completion-time rows. Nil axes use all three
// operations and DefaultCollRankGrid; a spec whose Collective block pins
// Op or Ranks sweeps only that value. Each cell verifies the executed data
// plane against the sequential reference, so a sweep that returns rows has
// also proven the collective computed the right answer.
//
// Cells are deterministic: each builds its own engine, fabric, machines
// and payloads from per-cell seeds, so results are identical sequentially
// and in parallel.
func CollSweep(sp spec.Spec, ranks []int, ops []string, cfg CollSweepConfig, parallelism int) ([]CollRow, error) {
	rows, _, err := CollSweepObserved(sp, ranks, ops, cfg, parallelism, obs.Spec{})
	return rows, err
}

// CollSweepObserved is CollSweep with the observability plane: when ospec
// enables collection, each cell gets a Cell labelled
// "collsweep/<arch>/op=<op>/ranks=<n>" with one trace track per rank
// (step spans), delivery/drop/mark counters, completion and skew gauges
// and engine probes. A zero ospec yields a nil observer and the exact
// CollSweep behaviour.
func CollSweepObserved(sp spec.Spec, ranks []int, ops []string, cfg CollSweepConfig, parallelism int, ospec obs.Spec) ([]CollRow, *obs.Observer, error) {
	cfg = cfg.withDefaults()
	if len(ops) == 0 {
		if sp.Collective.Op != "" {
			ops = []string{sp.Collective.Op}
		} else {
			ops = make([]string, len(collective.Ops))
			for i, op := range collective.Ops {
				ops[i] = op.String()
			}
		}
	}
	for _, name := range ops {
		if name == "" {
			return nil, nil, fmt.Errorf("collsweep: empty operation name")
		}
		if _, err := collective.ParseOp(name); err != nil {
			return nil, nil, fmt.Errorf("collsweep: %w", err)
		}
	}
	if len(ranks) == 0 {
		if sp.Collective.Ranks != 0 {
			ranks = []int{sp.Collective.Ranks}
		} else {
			ranks = DefaultCollRankGrid
		}
	}
	for _, n := range ranks {
		if n < 2 || n > collective.MaxRanks {
			return nil, nil, fmt.Errorf("collsweep: rank count must be between 2 and %d, got %d", collective.MaxRanks, n)
		}
	}
	shape, err := resolveColl(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("collsweep: %w", err)
	}

	n := len(LoadSweepArchs) * len(ops) * len(ranks)
	axes := func(i int) (arch, op string, rk int) {
		arch = LoadSweepArchs[i/(len(ops)*len(ranks))]
		i %= len(ops) * len(ranks)
		return arch, ops[i/len(ranks)], ranks[i%len(ranks)]
	}
	var o *obs.Observer
	if ospec.Enabled() {
		labels := make([]string, n)
		for i := range labels {
			arch, op, rk := axes(i)
			labels[i] = fmt.Sprintf("collsweep/%s/op=%s/ranks=%d", arch, op, rk)
		}
		o = obs.New(ospec, labels...)
	}
	rows := make([]CollRow, n)
	errs := make([]error, n)
	forEachCell(n, parallelism, func(i int) {
		arch, opName, rk := axes(i)
		row, err := collCell(sp, arch, opName, rk, shape, cfg, o.Cell(i))
		if err != nil {
			errs[i] = fmt.Errorf("collsweep: %s op=%s ranks=%d: %w", arch, opName, rk, err)
			return
		}
		rows[i] = row
	})
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	return rows, o, nil
}

// collShape is the resolved per-sweep geometry from the spec's Collective
// and Load blocks.
type collShape struct {
	payload    int // bytes per rank vector
	chunk      int // max frame payload bytes
	portBuffer int
}

func resolveColl(sp spec.Spec) (collShape, error) {
	if err := sp.Collective.Validate(); err != nil {
		return collShape{}, err
	}
	s := collShape{
		payload:    sp.Collective.PayloadBytes,
		chunk:      sp.Collective.ChunkBytes,
		portBuffer: sp.Load.PortBuffer,
	}
	if s.payload == 0 {
		s.payload = collective.DefaultPayloadBytes
	}
	if s.chunk == 0 {
		s.chunk = nic.MTU
	}
	if s.portBuffer == 0 {
		s.portBuffer = DefaultCollPortBuffer
	}
	return s, nil
}

// collCell runs one (arch, op, ranks) cell on one engine: the operation's
// full plan executed over the cell's fabric. A step message fragments into
// chunk-sized frames, each frame pays the architecture's TX cost on the
// sender, the fabric's queueing and the RX cost at the destination, and
// the message's delivery notification rides the echo path back to the
// destination rank one switch latency later.
func collCell(sp spec.Spec, arch, opName string, ranks int, shape collShape, cfg CollSweepConfig, oc *obs.Cell) (CollRow, error) {
	op, err := collective.ParseOp(opName)
	if err != nil {
		return CollRow{}, err
	}
	d := sp.MustDerive()
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.Watchdog{MaxEvents: cfg.EventBudget})
	link := d.Link

	txs, rxs, err := rackEndpoints(d, arch, ranks, cfg.Seed)
	if err != nil {
		return CollRow{}, err
	}

	reg := oc.Metrics()
	deliveredC := reg.Counter(arch + ".delivered")
	droppedC := reg.Counter(arch + ".dropped")
	markedC := reg.Counter(arch + ".ecn_marked")
	obs.NewEngineProbe(reg, arch+".engine").Attach(eng)

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
		rng := sim.NewRand(cfg.Seed ^ 0xc0_11ec_71fe + uint64(r)*0x9e3779b97f4a7c15)
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

	eng.Run()
	if err := eng.Err(); err != nil {
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
