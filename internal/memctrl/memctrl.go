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

// Backend is the device behind a controller: a set of DRAM ranks, or — for
// the host-side view of a NetDIMM — a forwarder that relays requests to the
// nMC over the NVDIMM-P protocol.
type Backend interface {
	// Access performs one transfer starting no earlier than now and returns
	// the completion instant and the row-buffer outcome.
	Access(now sim.Time, local int64, write bool, bytes int64) (sim.Time, dram.AccessKind)
	// WouldHit reports whether an access would hit an open row right now;
	// FR-FCFS uses it to prefer row hits.
	WouldHit(local int64) bool
}

// RankSet is a Backend over multiple DRAM ranks with Fig. 9 rank decode.
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

func (rs *RankSet) rank(local int64) *dram.Rank {
	idx := addrmap.DecodeRank(local).Rank
	if idx >= len(rs.Ranks) {
		idx = idx % len(rs.Ranks)
	}
	return rs.Ranks[idx]
}

// Access implements Backend.
func (rs *RankSet) Access(now sim.Time, local int64, write bool, bytes int64) (sim.Time, dram.AccessKind) {
	return rs.rank(local).Access(now, local, write, bytes)
}

// WouldHit implements Backend.
func (rs *RankSet) WouldHit(local int64) bool { return rs.rank(local).WouldHit(local) }

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
}

// Response describes a completed transaction.
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
	ReadLatencySum        sim.Time
	BytesTransferred      int64
	MaxReadQueueDepth     int
	Rejected              uint64 // requests dropped because a queue was full
}

// AvgReadLatency returns the mean read latency, or 0 if no reads completed.
func (s Stats) AvgReadLatency() sim.Time {
	if s.ReadsDone == 0 {
		return 0
	}
	return s.ReadLatencySum / sim.Time(s.ReadsDone)
}

// Controller is an event-driven memory-channel scheduler.
type Controller struct {
	eng     *sim.Engine
	cfg     Config
	backend Backend

	readQ    []*entry
	writeQ   []*entry
	free     []*entry // recycled entries, each with its completion bound
	pickFn   func()   // c.pick, bound once so scheduling it does not allocate
	draining bool
	// issueAt is the earliest instant the next command may issue; it tracks
	// the backend's data-bus availability so bank preparation of the next
	// request overlaps the current burst.
	issueAt    sim.Time
	pickQueued bool

	stats Stats

	// Observability hooks (see Observe): nil when disabled, and every use
	// is a nil-safe no-op, so the scheduling path is unchanged when off.
	trk   *obs.Track
	depth *obs.Series
}

// New returns a controller driving backend on the given engine.
func New(eng *sim.Engine, cfg Config, backend Backend) *Controller {
	if backend == nil {
		panic("memctrl: nil backend")
	}
	c := &Controller{eng: eng, cfg: cfg, backend: backend}
	c.pickFn = c.pick
	return c
}

// entry is one queued transaction: the controller's own copy of the
// submitted Request plus its scheduling and completion state. Entries are
// recycled through Controller.free, and each binds its completion method
// value once, so a steady-state submit-issue-complete cycle allocates
// nothing.
type entry struct {
	c         *Controller
	req       Request
	submitted sim.Time
	bypassed  int // times FR-FCFS issued another request while this one waited
	// completed and kind are the backend's answer, set at issue.
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

// Stats returns a copy of the controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics (for measurement windows after warmup).
func (c *Controller) ResetStats() { c.stats = Stats{} }

// QueueDepths reports the current read and write queue occupancy.
func (c *Controller) QueueDepths() (reads, writes int) {
	return len(c.readQ), len(c.writeQ)
}

// Observe attaches the observability plane: trk records one span per
// completed transaction (submit to completion, named by direction and
// row-buffer outcome), depth samples read-queue occupancy at every enqueue
// and issue. Either hook may be nil; Observe(nil, nil) detaches both.
func (c *Controller) Observe(trk *obs.Track, depth *obs.Series) {
	c.trk = trk
	c.depth = depth
}

// Submit enqueues a copy of req. It keeps no reference to req, so the
// caller may reuse or mutate it as soon as Submit returns; the queued
// transaction, and the Response its Done receives, are stamped with this
// call's instant. It returns an error if the target queue is full; the
// request is then dropped (callers model back-pressure, possibly by
// submitting the same Request again later).
func (c *Controller) Submit(req *Request) error {
	if req.Write {
		if len(c.writeQ) >= c.cfg.WriteQueueCap {
			c.stats.Rejected++
			return fmt.Errorf("memctrl: write queue full (%d)", c.cfg.WriteQueueCap)
		}
	} else if len(c.readQ) >= c.cfg.ReadQueueCap {
		c.stats.Rejected++
		return fmt.Errorf("memctrl: read queue full (%d)", c.cfg.ReadQueueCap)
	}
	e := c.newEntry()
	e.req = *req
	e.submitted = c.eng.Now()
	e.bypassed = 0
	if e.req.Bytes <= 0 {
		e.req.Bytes = addrmap.CachelineSize
	}
	if e.req.Write {
		c.writeQ = append(c.writeQ, e)
	} else {
		c.readQ = append(c.readQ, e)
		if d := len(c.readQ); d > c.stats.MaxReadQueueDepth {
			c.stats.MaxReadQueueDepth = d
		}
		c.depth.Sample(e.submitted, int64(len(c.readQ)))
	}
	c.schedulePick()
	return nil
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

// pick selects and issues one request per invocation (FR-FCFS with
// watermark-based write draining), then reschedules itself.
func (c *Controller) pick() {
	c.pickQueued = false

	// Decide which queue to serve.
	if c.draining {
		if len(c.writeQ) <= c.cfg.WriteLowWatermark {
			c.draining = false
		}
	} else if len(c.writeQ) >= c.cfg.WriteHighWatermark {
		c.draining = true
	}
	var q *[]*entry
	switch {
	case c.draining && len(c.writeQ) > 0:
		q = &c.writeQ
	case len(c.readQ) > 0:
		q = &c.readQ
	case len(c.writeQ) > 0:
		q = &c.writeQ
	default:
		return
	}

	idx := c.frfcfs(*q)
	e := (*q)[idx]
	*q = append((*q)[:idx], (*q)[idx+1:]...)

	now := c.eng.Now()
	if !e.req.Write {
		c.depth.Sample(now, int64(len(c.readQ)))
	}
	e.completed, e.kind = c.backend.Access(now+c.cfg.TCMD, e.req.Addr, e.req.Write, e.req.Bytes)
	// The front end issues one command per burst slot: command processing
	// pipelines, so a row-friendly stream is bus-bound, not tCMD+tCL-bound.
	// Bank and bus constraints are enforced inside the backend.
	burst := sim.Nanosecond
	if rs, ok := c.backend.(*RankSet); ok {
		burst = rs.Ranks[0].Timing().BurstTime(e.req.Bytes)
	}
	c.issueAt = now + burst

	c.eng.At(e.completed, e.completeFn)

	if len(c.readQ)+len(c.writeQ) > 0 {
		c.schedulePick()
	}
}

// complete retires the transaction at its completion instant: it updates
// the statistics, recycles the entry and then invokes the request's Done,
// which may submit new requests.
func (e *entry) complete() {
	c := e.c
	req, done := e.req, e.completed
	if req.Write {
		c.stats.WritesDone++
	} else {
		c.stats.ReadsDone++
		c.stats.ReadLatencySum += done - e.submitted
	}
	if c.trk != nil {
		dir := "rd "
		if req.Write {
			dir = "wr "
		}
		c.trk.Span(dir+e.kind.String(), e.submitted, done)
	}
	c.stats.BytesTransferred += req.Bytes
	resp := Response{
		Addr:      req.Addr,
		Write:     req.Write,
		Submitted: e.submitted,
		Completed: done,
		Kind:      e.kind,
	}
	e.req.Done = nil // drop the caller's closure so the free list pins nothing
	c.free = append(c.free, e)
	if req.Done != nil {
		req.Done(resp)
	}
}

// frfcfs returns the index of the request to issue: the oldest request that
// exceeded the starvation cap if any, else the oldest row hit, else the
// oldest request. Every bypassed request's age counter increments.
func (c *Controller) frfcfs(q []*entry) int {
	for i, e := range q {
		if e.bypassed >= c.cfg.StarvationCap {
			return i
		}
	}
	hit := -1
	for i, e := range q {
		if c.backend.WouldHit(e.req.Addr) {
			hit = i
			break
		}
	}
	pick := 0
	if hit >= 0 {
		pick = hit
	}
	for i, e := range q {
		if i != pick {
			e.bypassed++
		}
	}
	return pick
}
