package experiments

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"netdimm/internal/collective"
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

// collEventBudget bounds each collective-sweep cell's engine via the
// watchdog.
const collEventBudget = 8_000_000

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

// CollSweepObserved runs the collective sweep: for every (architecture,
// operation, ranks) cell it executes the operation's full dependency graph
// over the spec's fabric and reports completion-time rows. Nil axes use all
// three operations and DefaultCollRankGrid; a spec whose Collective block
// pins Op or Ranks sweeps only that value. seed perturbs the NetDIMM device
// seeds and every rank's payload contents. Each cell verifies the executed
// data plane against the sequential reference, so a sweep that returns rows
// has also proven the collective computed the right answer.
//
// Cells are deterministic: each builds its own engine, fabric, machines
// and payloads from per-cell seeds, so results are identical sequentially
// and in parallel.
//
// When ospec enables collection, each cell gets a Cell labelled
// "collsweep/<arch>/op=<op>/ranks=<n>" with one trace track per rank (step
// spans), delivery/drop/mark counters, completion and skew gauges and
// engine probes. A zero ospec yields a nil observer.
func CollSweepObserved(sp spec.Spec, ranks []int, ops []string, seed uint64, parallelism int, ospec obs.Spec) ([]CollRow, *obs.Observer, error) {
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
	shape.maxRanks = slices.Max(ranks)

	axes := func(i int) (arch, op string, rk int) {
		arch = Archs[i/(len(ops)*len(ranks))]
		i %= len(ops) * len(ranks)
		return arch, ops[i/len(ranks)], ranks[i%len(ranks)]
	}
	return runCells(len(Archs)*len(ops)*len(ranks), parallelism, ospec, func(i int) string {
		arch, op, rk := axes(i)
		return fmt.Sprintf("collsweep/%s/op=%s/ranks=%d", arch, op, rk)
	}, func(i int, oc *obs.Cell) (CollRow, error) {
		arch, opName, rk := axes(i)
		row, err := collCell(sp, arch, opName, rk, shape, seed, oc)
		if err != nil {
			return CollRow{}, fmt.Errorf("collsweep: %s op=%s ranks=%d: %w", arch, opName, rk, err)
		}
		return row, nil
	})
}

// collShape is the resolved per-sweep geometry from the spec's Collective
// and Load blocks, with the sweep's vector and job-chunk free lists.
type collShape struct {
	payload    int // bytes per rank vector
	chunk      int // max frame payload bytes
	portBuffer int
	vecs       *vecPool
	jobs       *jobPool
	// maxRanks is the sweep's largest rank count. A cell's rank backing
	// is made large enough for it, so the sweep's cells share one backing
	// per worker whatever order their rank counts come in.
	maxRanks int
}

// vecPool is a sweep's free list of int64 vectors, shared by its cells
// under a mutex. A cell takes its rank vectors and its verification
// references from it and puts them back when it ends, so a sweep holds
// about one cell's vectors per worker instead of allocating them per cell.
// A cell writes every element before it reads it, so what a vector held
// in an earlier cell never shows, and results stay the same at any
// parallelism.
type vecPool struct {
	mu   sync.Mutex
	free [][]int64
}

// get returns an n-element vector: the smallest free one that holds n
// elements, else a new one with capacity for max(n, capacity).
func (p *vecPool) get(n, capacity int) []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, v := range p.free {
		if cap(v) >= n && (best < 0 || cap(v) < cap(p.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]int64, n, max(n, capacity))
	}
	v := p.free[best]
	last := len(p.free) - 1
	p.free[best], p.free[last] = p.free[last], nil
	p.free = p.free[:last]
	return v[:n]
}

// put returns vectors to the free list.
func (p *vecPool) put(vs ...[]int64) {
	p.mu.Lock()
	p.free = append(p.free, vs...)
	p.mu.Unlock()
}

func resolveColl(sp spec.Spec) (collShape, error) {
	if err := sp.Collective.Validate(); err != nil {
		return collShape{}, err
	}
	s := collShape{
		payload:    sp.Collective.PayloadBytes,
		chunk:      sp.Collective.ChunkBytes,
		portBuffer: sp.Load.PortBuffer,
		vecs:       &vecPool{},
		jobs:       &jobPool{},
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
// destination rank one switch latency later. After the drain the cell
// checks frame and message conservation, then the data plane.
func collCell(sp spec.Spec, arch, opName string, ranks int, shape collShape, seed uint64, oc *obs.Cell) (CollRow, error) {
	op, err := collective.ParseOp(opName)
	if err != nil {
		return CollRow{}, err
	}
	// The counters are created before the transport's engine probe, as in
	// refCollCell, so Registry.Counters lists them in the same order.
	reg := oc.Metrics()
	deliveredC := reg.Counter(arch + ".delivered")
	droppedC := reg.Counter(arch + ".dropped")
	markedC := reg.Counter(arch + ".ecn_marked")
	s := &collSource{chunk: shape.chunk, seq: make([]int, ranks)}
	if err := s.init(sp.MustDerive(), arch, ranks, false, seed, collEventBudget, shape.portBuffer, shape.jobs, reg); err != nil {
		return CollRow{}, err
	}
	s.cleared = s.tally
	eng := s.eng

	// Payloads: one vector per rank, contents drawn from per-rank streams
	// so they are independent of op and architecture, with the
	// verification reference built as they are drawn.
	elems := max(shape.payload/8, 1)
	data := make([][]int64, ranks)
	backing, sum, root := shape.vecs.get(ranks*elems, shape.maxRanks*elems), shape.vecs.get(elems, 0), shape.vecs.get(elems, 0)
	defer shape.vecs.put(backing, sum, root)
	for r := range data {
		data[r] = backing[r*elems : (r+1)*elems : (r+1)*elems]
	}
	drawPayloads(seed, data, sum, root)

	plan := collective.NewPlan(op, ranks)
	exec := collective.NewExec(plan, data, s.send, func(int) sim.Time { return eng.Now() })
	for r := 0; r < ranks; r++ {
		eng.At(0, func() { exec.Launch(r) })
	}

	if err := s.run(); err != nil {
		return CollRow{}, err
	}
	if err := s.counts().check(); err != nil {
		return CollRow{}, err
	}
	if exec.DoneRanks() != ranks {
		rank, steps := exec.Progress()
		return CollRow{}, fmt.Errorf("collective stalled: %d/%d ranks finished, rank %d stuck after %d/%d steps with %d dropped frames (raise Load.PortBuffer above %d to absorb the step burst)",
			exec.DoneRanks(), ranks, rank, steps, plan.MaxSteps(), s.dropped, shape.portBuffer)
	}
	if err := collective.VerifyReference(op, sum, root, data); err != nil {
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

	util := s.utilization(ranks)
	deliveredC.Add(int64(s.messages))
	droppedC.Add(int64(s.dropped))
	markedC.Add(int64(s.fstats.Marked))
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
		BytesOnWire:     s.bytesOnWire,
		Frames:          s.delivered,
		Delivered:       s.messages,
		Dropped:         s.dropped,
		Marked:          int(s.fstats.Marked),
		LinkUtilization: util,
	}, nil
}

// payloadMask keeps 40 bits of a payload stream's output, which is
// Int63n(1 << 40).
const payloadMask = 1<<40 - 1

// payloadStream is rank r's payload generator.
func payloadStream(seed uint64, r int) sim.Rand {
	return *sim.NewRand(seed ^ 0xc0_11ec_71fe + uint64(r)*0x9e3779b97f4a7c15)
}

// drawPayloads fills every rank's vector from its own stream, sum with
// their element-wise sum and root with a copy of rank 0's. Each stream is
// a serial chain of xorshifts, so four ranks are drawn in one loop for
// the core to overlap their chains; the values and sums are the ones a
// loop over single ranks gives. It writes every element of sum and root,
// so their old contents never show.
func drawPayloads(seed uint64, data [][]int64, sum, root []int64) {
	clear(sum)
	r := 0
	for ; r+4 <= len(data); r += 4 {
		ga, gb, gc, gd := payloadStream(seed, r), payloadStream(seed, r+1), payloadStream(seed, r+2), payloadStream(seed, r+3)
		va := data[r]
		vb, vc, vd, sum := data[r+1][:len(va)], data[r+2][:len(va)], data[r+3][:len(va)], sum[:len(va)]
		for i := range va {
			a, b := int64(ga.Uint64()&payloadMask), int64(gb.Uint64()&payloadMask)
			c, d := int64(gc.Uint64()&payloadMask), int64(gd.Uint64()&payloadMask)
			va[i], vb[i], vc[i], vd[i] = a, b, c, d
			sum[i] += a + b + c + d
		}
	}
	for ; r < len(data); r++ {
		g, v := payloadStream(seed, r), data[r]
		sum := sum[:len(v)]
		for i := range v {
			x := int64(g.Uint64() & payloadMask)
			v[i] = x
			sum[i] += x
		}
	}
	copy(root, data[0])
}

// collSource is the collective cell's SendFn on its transport: a step
// message fragments into chunk-sized frames, and the message is delivered
// to the executor once its last frame has cleared RX.
type collSource struct {
	cellTransport
	chunk int
	seq   []int // per rank: messages sent so far, numbering the frame IDs
	// msgs holds the messages in transit, each counting the frames it
	// still waits for.
	msgs           slab[collMsg]
	sent, messages int // step messages
	bytesOnWire    int64
}

// collMsg is one step message in transit.
type collMsg struct {
	left    int    // frames not yet through RX; 0 marks a free slot
	deliver func() // the executor's delivery
}

// send fragments one step message into frames and queues them, in order,
// at src's TX driver.
func (s *collSource) send(src, dst, step, bytes int, deliver func()) {
	nf := max((bytes+s.chunk-1)/s.chunk, 1) // a zero-byte chunk still carries the dependency token
	msg := s.msgs.put(collMsg{left: nf, deliver: deliver})
	s.sent++
	s.offered += nf
	for f := 0; f < nf; f++ {
		sz := max(shareCount(bytes, nf, f), minFrameBytes)
		p := nic.Packet{ID: uint64(src)<<40 | uint64(s.seq[src])<<20 | uint64(f), Size: sz, Born: s.eng.Now()}
		s.cellTransport.send(frame{p: p, src: int32(src), dst: int32(dst), tag: msg})
	}
	s.seq[src]++
}

// tally counts a frame that cleared RX; the message's last frame
// echoes its delivery to the destination rank and frees its slot.
func (s *collSource) tally(fr *frame) {
	s.bytesOnWire += int64(fr.p.Size + nic.EthernetOverheadBytes)
	if m := &s.msgs.items[fr.tag]; m.left > 1 {
		m.left--
		return
	}
	s.messages++
	s.topo.EchoMark(int(fr.dst), s.msgs.take(fr.tag).deliver)
}

// counts gathers the cell's conservation tallies: a message still counting
// frames lost one of them.
func (s *collSource) counts() cellCounts {
	n := cellCounts{offered: s.offered, delivered: s.delivered, dropped: s.dropped,
		msgSent: s.sent, msgDelivered: s.messages}
	for _, m := range s.msgs.items {
		if m.left > 0 {
			n.msgOpen++
		}
	}
	return n
}
