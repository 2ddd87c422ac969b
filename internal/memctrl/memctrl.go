// Package memctrl models a DDR memory controller: read/write queues,
// FR-FCFS scheduling with an anti-starvation age cap, posted writes with
// high/low-watermark draining, and per-channel statistics.
//
// It follows the abstraction of the controller model the paper builds on
// (Hansson et al. [37]) and is reused both for host channels and for the
// NetDIMM-local nMC (paper Sec. 5.1: "we instantiate an isolated memory
// controller that models nMC").
package memctrl

import (
	"fmt"

	"netdimm/internal/addrmap"
	"netdimm/internal/dram"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
)

// RankSet is the DRAM behind a controller: one channel of ranks with
// Fig. 9 rank decode.
type RankSet struct {
	Ranks []*dram.Rank
}

// NewRankSet builds n ranks with the given timing, sharing one channel
// data bus (bursts from different ranks serialise).
func NewRankSet(t dram.Timing, n int) *RankSet {
	rs := &RankSet{}
	bus := &dram.Bus{}
	for i := 0; i < n; i++ {
		r := dram.NewRank(t)
		r.ShareBus(bus)
		rs.Ranks = append(rs.Ranks, r)
	}
	return rs
}

// rank returns the rank an address's rank field idx selects.
func (rs *RankSet) rank(idx int) *dram.Rank {
	if idx >= len(rs.Ranks) {
		idx = idx % len(rs.Ranks)
	}
	return rs.Ranks[idx]
}

// Access performs one transfer starting no earlier than now on the rank
// the address decodes to, and returns the completion instant and the
// row-buffer outcome.
func (rs *RankSet) Access(now sim.Time, local int64, write bool, bytes int64) (sim.Time, dram.AccessKind) {
	return rs.rank(addrmap.DecodeRank(local).Rank).Access(now, local, write, bytes)
}

// Stats reduces all rank statistics to one.
func (rs *RankSet) Stats() dram.Stats {
	var s dram.Stats
	for _, r := range rs.Ranks {
		rs := r.Stats()
		s.Reads += rs.Reads
		s.Writes += rs.Writes
		s.Hits += rs.Hits
		s.Misses += rs.Misses
		s.Conflicts += rs.Conflicts
		s.Activations += rs.Activations
		s.BusBusy += rs.BusBusy
	}
	return s
}

// Request is one memory transaction submitted to a controller. Addresses
// are channel-local (after system-level interleave decode).
type Request struct {
	Addr  int64
	Write bool
	Bytes int64
	// Done, if non-nil, is invoked at the completion instant with the
	// response. For writes the transaction is posted: Done reports when the
	// write retired to the device, but callers should usually not wait on
	// it.
	Done func(Response)
	// Admitted, if non-nil, is invoked when the request enters its queue:
	// within Submit if a slot is free, else when a pick frees one for it.
	// A requester that stalls behind a full queue, like a CPU load thread,
	// issues its next request from it.
	Admitted func()
}

// Response describes a completed transaction. Submitted is the instant
// the request arrived, even if it then waited for a queue slot.
type Response struct {
	Addr      int64
	Write     bool
	Submitted sim.Time
	Completed sim.Time
	Kind      dram.AccessKind
}

// Latency is the queue+device latency of the transaction.
func (r Response) Latency() sim.Time { return r.Completed - r.Submitted }

// Config parameterises a controller.
type Config struct {
	ReadQueueCap  int
	WriteQueueCap int
	// WriteHighWatermark switches the scheduler to write draining;
	// WriteLowWatermark switches it back to serving reads.
	WriteHighWatermark int
	WriteLowWatermark  int
	// StarvationCap bounds how many times FR-FCFS may bypass a request in
	// favour of younger row hits.
	StarvationCap int
	// TCMD is the fixed command-processing delay of the controller front
	// end, applied to every request (paper Sec. 5.1).
	TCMD sim.Time
}

// DefaultConfig returns controller parameters typical of a server-class MC.
func DefaultConfig() Config {
	return Config{
		ReadQueueCap:       64,
		WriteQueueCap:      64,
		WriteHighWatermark: 48,
		WriteLowWatermark:  16,
		StarvationCap:      16,
		TCMD:               5 * sim.Nanosecond,
	}
}

// Stats accumulates controller-level statistics.
type Stats struct {
	ReadsDone, WritesDone uint64
	BytesTransferred      int64
	MaxReadQueueDepth     int
}

// Controller is an event-driven memory-channel scheduler. Its admission
// rule is back-pressure: work that finds its queue full waits, in arrival
// order, and is admitted line by line as picks free slots. Nothing is
// rejected.
type Controller struct {
	eng    *sim.Engine
	cfg    Config
	ranks  *RankSet
	timing dram.Timing // the channel's: the front end issues one command per burst slot

	readQ, writeQ fifo
	free          []*entry    // recycled entries, each with its completion bound
	xfree         []*transfer // recycled transfers, each with its done event bound
	pickFn        func()      // c.pick, bound once so scheduling it does not allocate
	draining      bool
	// issueAt is the earliest instant the next command may issue; it tracks
	// the channel's data-bus availability so bank preparation of the next
	// request overlaps the current burst.
	issueAt    sim.Time
	pickQueued bool

	stats Stats

	// Observability hooks (see Observe): nil when disabled, and every use
	// is a nil-safe no-op, so the scheduling path is unchanged when off.
	trk   *obs.Track
	depth *obs.Series
}

// New returns a controller driving ranks on the given engine. It panics
// on a nil or empty rank set and on a Config the scheduler cannot run.
func New(eng *sim.Engine, cfg Config, ranks *RankSet) *Controller {
	if ranks == nil || len(ranks.Ranks) == 0 {
		panic("memctrl: no ranks")
	}
	if cfg.ReadQueueCap < 1 || cfg.WriteQueueCap < 1 || cfg.StarvationCap < 0 || cfg.WriteLowWatermark > cfg.WriteHighWatermark {
		panic(fmt.Sprintf("memctrl: %+v: want queue caps >= 1, StarvationCap >= 0 and WriteLowWatermark <= WriteHighWatermark", cfg))
	}
	c := &Controller{eng: eng, cfg: cfg, ranks: ranks, timing: ranks.Ranks[0].Timing()}
	c.readQ.cap, c.writeQ.cap = cfg.ReadQueueCap, cfg.WriteQueueCap
	c.pickFn = c.pick
	return c
}

// entry is one queue record: a run of consecutive lines in one (rank,
// bank, row), submitted at one instant and admitted at one pick count,
// with the controller's own copy of the submitted Request for its first
// queued line. Submit queues a 1-line record and SubmitLines one record
// per DRAM row of what its queue admits at once. An entry also carries
// one issued line to its completion event, or waiting lines (possibly
// across rows) to their admission. Entries are recycled through
// Controller.free, and each binds its completion method value once, so a
// steady-state submit-issue-complete cycle allocates nothing.
type entry struct {
	c         *Controller
	req       Request
	lines     int // queued lines, from req.Addr on
	submitted sim.Time
	// rank, bank, row and burst are decoded once at admission: the target
	// of the row-hit test and the issue, and the front end's burst slot.
	rank      *dram.Rank
	bank, row int
	burst     sim.Time
	enqPicks  uint64    // the queue's picks when the record joined it
	xfer      *transfer // the SubmitLines transfer the lines belong to, or nil
	// completed and kind are the rank's answer for an issued line.
	completed  sim.Time
	kind       dram.AccessKind
	completeFn func() // e.complete
}

// newEntry takes a recycled entry, or builds one when none is free.
func (c *Controller) newEntry() *entry {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		return e
	}
	e := &entry{c: c}
	e.completeFn = e.complete
	return e
}

// fifo is one scheduler queue: a ring of records in admission order,
// made at the queue's cap on first use (a record holds at least one
// line). n counts queued lines, recs records. picks counts the FR-FCFS
// picks served from the queue that bypassed every line left behind, so a
// record's lines have been bypassed picks-enqPicks times. wait holds, in
// arrival order, the work that found the queue full; it is empty
// whenever the queue has a free slot.
type fifo struct {
	ring          []*entry
	head, recs, n int
	cap           int
	picks         uint64
	wait          sim.FIFO[*entry]
}

// slot maps queue position i (0 is the oldest record) to its ring index.
func (q *fifo) slot(i int) int {
	if i += q.head; i >= len(q.ring) {
		i -= len(q.ring)
	}
	return i
}

func (q *fifo) push(e *entry) {
	if q.ring == nil {
		q.ring = make([]*entry, q.cap)
	}
	e.enqPicks = q.picks
	q.ring[q.slot(q.recs)] = e
	q.recs++
	q.n += e.lines
}

// takeLines takes the first n lines off the record at position i and reports
// whether they were its last. With its last line the record leaves the
// queue, and the older records move up one slot, so the queue keeps its
// order. FR-FCFS picks the head or the oldest row hit, so i is usually
// small.
func (q *fifo) takeLines(i, n int) (last bool) {
	q.n -= n
	at := q.slot(i)
	if e := q.ring[at]; e.lines > n {
		e.lines -= n
		e.req.Addr += int64(n) * addrmap.CachelineSize
		return false
	}
	for ; i > 0; i-- {
		prev := q.slot(i - 1)
		q.ring[at] = q.ring[prev]
		at = prev
	}
	q.head = q.slot(1)
	q.recs--
	return true
}

// transfer is one SubmitLines call in flight: the lines not yet retired
// and the latest completion instant of those that have. Transfers are
// recycled through Controller.xfree.
type transfer struct {
	c       *Controller
	pending int
	last    sim.Time
	done    func()
	fireFn  func() // x.fire
}

// lineDone retires n lines of the transfer, the latest completing at the
// given instant, and reports whether they were the last.
func (x *transfer) lineDone(completed sim.Time, n int) bool {
	x.last = max(x.last, completed)
	x.pending -= n
	return x.pending == 0
}

// finish fires done at the latest completion: at once if that is the
// present or (with advance set) the engine can advance straight to it,
// else from one event scheduled for it.
func (x *transfer) finish(advance bool) {
	eng := x.c.eng
	if x.last <= eng.Now() || advance && eng.Advance(x.last) {
		x.fire()
	} else {
		eng.At(x.last, x.fireFn)
	}
}

// fire recycles the transfer and then invokes its done, which may submit
// new requests.
func (x *transfer) fire() {
	done := x.done
	x.done = nil // the free list pins no closure
	x.c.xfree = append(x.c.xfree, x)
	if done != nil {
		done()
	}
}

// Stats returns a copy of the controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// Observe attaches the observability plane: trk records one span per
// completed transaction (submit to completion, named by direction and
// row-buffer outcome), depth samples read-queue occupancy at every enqueue
// and issue. Either hook may be nil; Observe(nil, nil) detaches both.
func (c *Controller) Observe(trk *obs.Track, depth *obs.Series) {
	c.trk = trk
	c.depth = depth
}

// Full reports whether a request to the write (or read) queue would wait
// for a slot.
func (c *Controller) Full(write bool) bool {
	q := c.queue(write)
	return q.n >= q.cap
}

func (c *Controller) queue(write bool) *fifo {
	if write {
		return &c.writeQ
	}
	return &c.readQ
}

// Submit queues a copy of req. It keeps no reference to req, so the
// caller may reuse or mutate it as soon as Submit returns; the
// transaction, and the Response its Done receives, are stamped with this
// call's instant. A request that finds its queue full waits behind the
// work already waiting.
func (c *Controller) Submit(req *Request) {
	e := c.newEntry()
	e.req, e.lines = *req, 1
	if e.req.Bytes <= 0 {
		e.req.Bytes = addrmap.CachelineSize
	}
	c.arrive(c.queue(req.Write), e)
}

// SubmitLines queues a transfer of n consecutive cachelines from addr,
// admitted exactly as n Submit calls would be. done (if non-nil) fires
// once, at the completion instant of the last line.
//
// The lines admitted together queue as one record per DRAM row they
// touch. A line's completion instant is known when it issues. So unless
// a span track is attached (Observe), which records each line at its
// completion, a line retires at issue and the transfer's done needs at
// most one engine event, in place of one per line.
func (c *Controller) SubmitLines(addr int64, n int, write bool, done func()) {
	if n <= 0 {
		return
	}
	var x *transfer
	if k := len(c.xfree); k > 0 {
		x, c.xfree = c.xfree[k-1], c.xfree[:k-1]
	} else {
		x = &transfer{c: c}
		x.fireFn = x.fire
	}
	x.pending, x.last, x.done = n, 0, done
	e := c.newEntry()
	e.req = Request{Addr: addr, Write: write, Bytes: addrmap.CachelineSize}
	e.lines, e.xfer = n, x
	c.arrive(c.queue(write), e)
}

// arrive stamps e with this instant, puts it behind the work waiting for
// q and admits what fits.
func (c *Controller) arrive(q *fifo, e *entry) {
	e.submitted = c.eng.Now()
	q.wait.Push(e)
	if c.admit(q) {
		c.schedulePick()
	}
}

// admit moves waiting lines into q, in arrival order, while q has a free
// slot, and reports whether it moved any. The lines it moves at once up
// to a DRAM row boundary form one record, which keeps its lines' arrival
// instant and takes this instant's enqPicks stamp.
func (c *Controller) admit(q *fifo) bool {
	admitted := false
	for q.n < q.cap && q.wait.Len() > 0 {
		w := *q.wait.Head()
		inRow := (addrmap.RankRowBytes - w.req.Addr%addrmap.RankRowBytes + addrmap.CachelineSize - 1) / addrmap.CachelineSize
		e := w
		if k := min(w.lines, int(inRow), q.cap-q.n); k < w.lines {
			e = c.newEntry()
			e.req, e.lines, e.submitted, e.xfer = w.req, k, w.submitted, w.xfer
			w.lines -= k
			w.req.Addr += int64(k) * addrmap.CachelineSize
		} else {
			q.wait.Drop()
		}
		c.enqueue(q, e)
		admitted = true
		if e.req.Admitted != nil {
			e.req.Admitted()
		}
	}
	return admitted
}

// enqueue decodes e's address and appends it to q.
func (c *Controller) enqueue(q *fifo, e *entry) {
	rank, bank, row := addrmap.BankRow(e.req.Addr)
	e.rank, e.bank, e.row = c.ranks.rank(rank), bank, row
	e.burst = c.timing.BurstTime(e.req.Bytes)
	q.push(e)
	if !e.req.Write {
		c.stats.MaxReadQueueDepth = max(c.stats.MaxReadQueueDepth, q.n)
		c.depth.Sample(c.eng.Now(), int64(q.n))
	}
}

func (c *Controller) schedulePick() {
	if c.pickQueued {
		return
	}
	c.pickQueued = true
	at := c.issueAt
	if at < c.eng.Now() {
		at = c.eng.Now()
	}
	c.eng.At(at, c.pickFn)
}

// pick issues one line per issue slot while lines remain, the next inline
// when the engine can advance straight to its slot, else from an event
// (issue may take a run of slots at once).
// When a transfer's last line leaves both queues empty, its done is the
// pick's last act, inline if the engine can advance to it.
func (c *Controller) pick() {
	c.pickQueued = false
	for {
		issued, x := c.issue()
		if !issued {
			return
		}
		empty := c.readQ.n+c.writeQ.n == 0
		if x != nil {
			x.finish(empty)
		}
		if empty {
			return
		}
		if !c.eng.Advance(max(c.issueAt, c.eng.Now())) {
			c.schedulePick()
			return
		}
	}
}

// issue issues the next line (FR-FCFS with watermark-based write
// draining), or the run of lines runLength allows, or reports false when
// both queues are empty. It returns the transfer whose last line it
// retired, if any, for the caller to finish.
func (c *Controller) issue() (issued bool, finished *transfer) {
	c.steer(c.writeQ.n) // decide which queue to serve
	var q *fifo
	switch {
	case c.draining && c.writeQ.n > 0:
		q = &c.writeQ
	case c.readQ.n > 0:
		q = &c.readQ
	case c.writeQ.n > 0:
		q = &c.writeQ
	default:
		return false, nil
	}

	i := c.frfcfs(q)
	e := q.ring[q.slot(i)]
	addr := e.req.Addr
	now := c.eng.Now()
	n := c.runLength(q, e, now)
	last := q.takeLines(i, n)

	if !e.req.Write {
		c.depth.Sample(now, int64(c.readQ.n))
	}
	// The front end issues one command per burst slot: command processing
	// pipelines, so a row-friendly stream is bus-bound, not tCMD+tCL-bound.
	// Bank and bus constraints are enforced inside the rank.
	completed, kind := e.rank.AccessRun(now+c.cfg.TCMD, e.burst, e.bank, e.row, e.req.Write, e.req.Bytes, n)
	c.issueAt = now + sim.Time(n)*e.burst
	if q.wait.Len() > 0 {
		c.admit(q) // the freed slot goes to the oldest waiting line
	}

	// A transfer's line, or a request with no Done, needs no completion
	// event of its own unless a span track records it.
	x := e.xfer
	if c.trk == nil && (x != nil || e.req.Done == nil) {
		c.retireLines(e, n, last)
		if x != nil && x.lineDone(completed, n) {
			return true, x
		}
		return true, nil
	}
	if !last { // the line leaves its record on an entry of its own
		l := c.newEntry()
		l.req, l.submitted, l.xfer = Request{Addr: addr, Write: e.req.Write, Bytes: e.req.Bytes}, e.submitted, x
		e = l
	}
	e.completed, e.kind = completed, kind
	c.eng.At(completed, e.completeFn)
	return true, nil
}

// runLength returns how many lines of e, the record FR-FCFS picked from q
// at now, issue at once: one, or every line of e when e is the only
// record in either queue, nothing waits for admission, no span track or
// depth series records lines one by one, and the engine can advance
// straight to the last line's issue slot, one burst per line on. Then
// nothing else runs before that slot and each pick would take e's next
// line, so runLength advances the engine there, counting the picks it
// stands for as fired, and replays on the controller what those picks
// would do: steer the write drain as the write queue falls, and bypass
// up to StarvationCap picks. Every line of a record shares its row, so
// the rank times them in closed form (dram.Rank.AccessRun).
func (c *Controller) runLength(q *fifo, e *entry, now sim.Time) int {
	n := e.lines
	if n == 1 || c.readQ.n+c.writeQ.n != n || q.wait.Len() > 0 || c.trk != nil || c.depth != nil ||
		!c.eng.AdvanceN(now+sim.Time(n-1)*e.burst, uint64(n-1)) {
		return 1
	}
	c.steerRun(c.writeQ.n, n, e.req.Write)
	if lim := e.enqPicks + uint64(c.cfg.StarvationCap); q.picks < lim {
		q.picks = min(q.picks+uint64(n-1), lim)
	}
	return n
}

// steerRun leaves the write-drain mode where the n-1 picks after a lone
// record's first would: each steers by the write queue's count, w before
// the run, falling by one per pick for a write record and fixed for a
// read. With WriteLowWatermark < WriteHighWatermark those picks change the
// mode at most twice, so the result has a closed form. A read record
// settles on its first pick: the mode steer sets for a fixed count is
// steer's fixed point. A write record can start draining only on its first
// pick, where the count is highest, and then stops if any pick's count,
// so the last and lowest, reaches the low watermark. Once stopped, the
// count stays below the high watermark. Equal watermarks can toggle the
// mode on every pick, so they replay the picks one by one.
func (c *Controller) steerRun(w, n int, write bool) {
	switch {
	case c.cfg.WriteLowWatermark >= c.cfg.WriteHighWatermark:
		for k := 1; k < n; k++ {
			if write {
				w--
			}
			c.steer(w)
		}
	case !write:
		c.steer(w)
	default:
		c.steer(w - 1)
		if c.draining && w-(n-1) <= c.cfg.WriteLowWatermark {
			c.draining = false
		}
	}
}

// steer sets the write-drain mode for a pick that finds w lines in the
// write queue: draining starts at the high watermark and stops at the low
// one.
func (c *Controller) steer(w int) {
	if c.draining {
		if w <= c.cfg.WriteLowWatermark {
			c.draining = false
		}
	} else if w >= c.cfg.WriteHighWatermark {
		c.draining = true
	}
}

// retireLines accounts n lines of e whose completion instants are known, and
// recycles e with its last line.
func (c *Controller) retireLines(e *entry, n int, last bool) {
	if e.req.Write {
		c.stats.WritesDone += uint64(n)
	} else {
		c.stats.ReadsDone += uint64(n)
	}
	c.stats.BytesTransferred += int64(n) * e.req.Bytes
	if last {
		e.req, e.xfer = Request{}, nil // the free list pins no caller state
		c.free = append(c.free, e)
	}
}

// complete retires the line at its completion instant, records its span,
// and then invokes the request's Done (or retires the line of its
// transfer), which may submit new requests.
func (e *entry) complete() {
	c := e.c
	if c.trk != nil {
		dir := "rd "
		if e.req.Write {
			dir = "wr "
		}
		c.trk.Span(dir+e.kind.String(), e.submitted, e.completed)
	}
	resp := Response{
		Addr:      e.req.Addr,
		Write:     e.req.Write,
		Submitted: e.submitted,
		Completed: e.completed,
		Kind:      e.kind,
	}
	done, x := e.req.Done, e.xfer
	c.retireLines(e, 1, true)
	if x != nil {
		if x.lineDone(resp.Completed, 1) {
			x.finish(false)
		}
	} else if done != nil {
		done(resp)
	}
}

// frfcfs returns the position in q of the record whose first line to
// issue: the oldest line if FR-FCFS has bypassed it StarvationCap times,
// else the oldest row hit, else the oldest line. A record's lines share a
// row and a bypass count, so its first line stands for all of them. The
// queue is FIFO, so the oldest line is also the most bypassed and the
// starvation test needs only the head. Every pick but a starvation pick
// bypasses all the lines it leaves queued.
func (c *Controller) frfcfs(q *fifo) int {
	if q.picks-q.ring[q.head].enqPicks >= uint64(c.cfg.StarvationCap) {
		return 0
	}
	q.picks++
	for i, j := 0, q.head; i < q.recs; i++ {
		if e := q.ring[j]; e.rank.OpenRow(e.bank) == e.row {
			return i
		}
		if j++; j == len(q.ring) {
			j = 0
		}
	}
	return 0
}
