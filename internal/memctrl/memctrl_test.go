package memctrl

import (
	"testing"

	"netdimm/internal/addrmap"
	"netdimm/internal/dram"
	"netdimm/internal/sim"
)

func newCtrl(t *testing.T) (*sim.Engine, *Controller, *RankSet) {
	t.Helper()
	eng := sim.NewEngine()
	rs := NewRankSet(dram.DDR4_2400(), 2)
	return eng, New(eng, DefaultConfig(), rs), rs
}

func TestSingleReadLatency(t *testing.T) {
	eng, c, _ := newCtrl(t)
	var resp Response
	c.Submit(&Request{Addr: 0, Done: func(r Response) { resp = r }})
	eng.Run()
	tm := dram.DDR4_2400()
	want := DefaultConfig().TCMD + tm.TRCD + tm.TCL + tm.TBL
	if resp.Latency() != want {
		t.Fatalf("read latency = %v, want %v", resp.Latency(), want)
	}
	if resp.Kind != dram.RowMiss {
		t.Fatalf("kind = %v, want miss", resp.Kind)
	}
}

func TestRowHitFollowUp(t *testing.T) {
	eng, c, _ := newCtrl(t)
	var lat []sim.Time
	done := func(r Response) { lat = append(lat, r.Latency()) }
	c.Submit(&Request{Addr: 0, Done: done})
	c.Submit(&Request{Addr: 64, Done: done})
	eng.Run()
	if len(lat) != 2 {
		t.Fatalf("completed %d reads", len(lat))
	}
	// The second read queues behind the first but skips the activate, so
	// its total latency stays below a full back-to-back (2x) serialisation.
	if lat[1] >= 2*lat[0] {
		t.Fatalf("second (row-hit) read latency %v not pipelined vs %v", lat[1], lat[0])
	}
}

// FR-FCFS: a row-hit request issued later should be served before an older
// row-conflict request, up to the starvation cap.
func TestFRFCFSPrefersRowHits(t *testing.T) {
	eng, c, _ := newCtrl(t)
	var order []string
	// Open row 0 first.
	c.Submit(&Request{Addr: 0, Done: func(Response) { order = append(order, "warm") }})
	eng.Run()

	conflictAddr := addrmap.SameSubarrayPageStride // same bank, other row
	c.Submit(&Request{Addr: conflictAddr, Done: func(Response) { order = append(order, "conflict") }})
	c.Submit(&Request{Addr: 64, Done: func(Response) { order = append(order, "hit") }})
	eng.Run()
	if len(order) != 3 || order[1] != "hit" || order[2] != "conflict" {
		t.Fatalf("order = %v, want hit before conflict", order)
	}
}

// Anti-starvation: a bypassed request is eventually served even under a
// steady stream of row hits.
func TestNoStarvation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.StarvationCap = 4
	rs := NewRankSet(dram.DDR4_2400(), 1)
	c := New(eng, cfg, rs)

	c.Submit(&Request{Addr: 0})
	eng.Run()

	victimDone := sim.Time(-1)
	c.Submit(&Request{Addr: addrmap.SameSubarrayPageStride, Done: func(r Response) { victimDone = r.Completed }})
	// Feed row hits continuously; the victim must still complete.
	for i := 1; i <= 50; i++ {
		c.Submit(&Request{Addr: int64(i%60) * 64})
	}
	eng.Run()
	if victimDone < 0 {
		t.Fatal("row-conflict request starved")
	}
	s := c.Stats()
	if s.ReadsDone != 52 {
		t.Fatalf("ReadsDone = %d, want 52", s.ReadsDone)
	}
}

// A full queue holds requests back and drops none: the requests past the
// cap wait, the queue never holds more than its cap, and every request
// completes, in arrival order for a row-hit stream.
func TestQueueFullWaits(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ReadQueueCap = 4
	rs := NewRankSet(dram.DDR4_2400(), 1)
	c := New(eng, cfg, rs)
	var order []int64
	var maxDepth int
	done := func(r Response) {
		order = append(order, r.Addr/64)
		maxDepth = max(maxDepth, c.readQ.n)
	}
	for i := int64(0); i < 10; i++ {
		c.Submit(&Request{Addr: i * 64, Done: done})
	}
	if r, _ := c.QueueDepths(); r != 4 {
		t.Fatalf("read queue holds %d lines, want its cap 4", r)
	}
	if r, _ := c.Waiting(); r != 6 {
		t.Fatalf("%d reads waiting, want 6", r)
	}
	eng.Run()
	if s := c.Stats(); s.ReadsDone != 10 || s.MaxReadQueueDepth != 4 || maxDepth > 4 {
		t.Fatalf("ReadsDone = %d, MaxReadQueueDepth = %d, depth at a completion up to %d; want 10, 4 and at most 4",
			s.ReadsDone, s.MaxReadQueueDepth, maxDepth)
	}
	for i, a := range order {
		if a != int64(i) {
			t.Fatalf("completion order %v, want arrival order", order)
		}
	}
}

// Writes are buffered and drained at the high watermark; reads keep
// priority below it.
func TestWriteDraining(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.WriteHighWatermark = 8
	cfg.WriteLowWatermark = 2
	cfg.WriteQueueCap = 32
	rs := NewRankSet(dram.DDR4_2400(), 1)
	c := New(eng, cfg, rs)

	for i := 0; i < 16; i++ {
		c.Submit(&Request{Addr: int64(i) * 64, Write: true})
	}
	eng.Run()
	if c.Stats().WritesDone != 16 {
		t.Fatalf("WritesDone = %d", c.Stats().WritesDone)
	}
}

func TestReadPriorityOverWrites(t *testing.T) {
	eng, c, _ := newCtrl(t)
	var first string
	mark := func(name string) func(Response) {
		return func(Response) {
			if first == "" {
				first = name
			}
		}
	}
	// A few writes below the watermark, then a read: the read goes first.
	c.Submit(&Request{Addr: 1 << 20, Write: true, Done: mark("write")})
	c.Submit(&Request{Addr: 2 << 20, Write: true, Done: mark("write")})
	c.Submit(&Request{Addr: 0, Done: mark("read")})
	eng.Run()
	if first != "read" {
		t.Fatalf("first completion = %q, want read", first)
	}
}

func TestStatsBandwidth(t *testing.T) {
	eng, c, _ := newCtrl(t)
	const n = 1000
	for i := 0; i < n; i++ {
		c.Submit(&Request{Addr: int64(i) * 64})
		eng.Run()
	}
	s := c.Stats()
	if s.BytesTransferred != n*64 {
		t.Fatalf("BytesTransferred = %d", s.BytesTransferred)
	}
	if s.ReadsDone != n {
		t.Fatalf("ReadsDone = %d, want %d", s.ReadsDone, n)
	}
}

// Throughput sanity: back-to-back row-hit reads approach the burst-rate
// bound of the channel and never exceed it.
func TestThroughputBound(t *testing.T) {
	eng, c, _ := newCtrl(t)
	const n = 2000
	var last sim.Time
	for i := 0; i < n; i++ {
		c.Submit(&Request{Addr: int64(i%128) * 64, Done: func(r Response) { last = r.Completed }})
		if i%32 == 31 {
			eng.Run() // drain in batches so no read waits for a slot
		}
	}
	eng.Run()
	tm := dram.DDR4_2400()
	minTime := sim.Time(n) * tm.TBL // bus-bound lower limit
	if last < minTime {
		t.Fatalf("completed %d reads in %v, faster than the bus allows (%v)", n, last, minTime)
	}
	// Should be within 2x of the bound for a row-friendly stream.
	if last > 3*minTime {
		t.Fatalf("throughput too low: %v for bound %v", last, minTime)
	}
}

func TestDefaultBytes(t *testing.T) {
	eng, c, _ := newCtrl(t)
	c.Submit(&Request{Addr: 0}) // Bytes omitted -> one cacheline
	eng.Run()
	if c.Stats().BytesTransferred != addrmap.CachelineSize {
		t.Fatalf("BytesTransferred = %d, want one cacheline", c.Stats().BytesTransferred)
	}
}

func TestRankSetDecode(t *testing.T) {
	rs := NewRankSet(dram.DDR4_2400(), 2)
	rs.Access(0, 0, false, 64)
	rs.Access(0, addrmap.RankBytes, false, 64)
	if rs.Ranks[0].Stats().Reads != 1 || rs.Ranks[1].Stats().Reads != 1 {
		t.Fatalf("rank decode wrong: %d/%d reads", rs.Ranks[0].Stats().Reads, rs.Ranks[1].Stats().Reads)
	}
	s := rs.Stats()
	if s.Reads != 2 {
		t.Fatalf("aggregate reads = %d", s.Reads)
	}
}

func TestNilBackendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil backend accepted")
		}
	}()
	New(sim.NewEngine(), DefaultConfig(), nil)
}

func BenchmarkControllerStream(b *testing.B) {
	eng := sim.NewEngine()
	rs := NewRankSet(dram.DDR4_2400(), 2)
	c := New(eng, DefaultConfig(), rs)
	for i := 0; i < b.N; i++ {
		c.Submit(&Request{Addr: int64(i%4096) * 64, Write: i%3 == 0})
		if i%32 == 31 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkControllerTransfer times a packet's worth of nMC work: a
// 24-line (1514 B) read transfer and a 24-line write transfer, each
// queued as one record, issued and finished.
func BenchmarkControllerTransfer(b *testing.B) {
	eng := sim.NewEngine()
	c := New(eng, DefaultConfig(), NewRankSet(dram.DDR4_2400(), 2))
	done := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := int64(i%4096) * addrmap.PageSize
		c.SubmitLines(buf, 24, false, done)
		c.SubmitLines(buf+addrmap.SameSubarrayPageStride, 24, true, done)
		eng.Run()
	}
}

// Submit copies the request: a caller that mutates or reuses its Request
// right after Submit does not change the transaction already queued.
func TestSubmitCopiesRequest(t *testing.T) {
	eng, c, _ := newCtrl(t)
	var first, second []Response
	req := &Request{Addr: 0x40, Done: func(r Response) { first = append(first, r) }}
	c.Submit(req)
	// Reuse the same Request for a different transaction before the first
	// one has even been issued.
	req.Addr, req.Write, req.Bytes = 0x8000, true, 4*addrmap.CachelineSize
	req.Done = func(r Response) { second = append(second, r) }
	c.Submit(req)
	req.Addr, req.Done = 0x1234, nil
	eng.Run()
	if len(first) != 1 || first[0].Addr != 0x40 || first[0].Write {
		t.Fatalf("first transaction completed as %+v, want one read of 0x40", first)
	}
	if len(second) != 1 || second[0].Addr != 0x8000 || !second[0].Write {
		t.Fatalf("second transaction completed as %+v, want one write of 0x8000", second)
	}
	s := c.Stats()
	if s.ReadsDone != 1 || s.WritesDone != 1 {
		t.Fatalf("reads/writes done = %d/%d, want 1/1", s.ReadsDone, s.WritesDone)
	}
	if want := addrmap.CachelineSize + 4*addrmap.CachelineSize; s.BytesTransferred != want {
		t.Fatalf("BytesTransferred = %d, want %d", s.BytesTransferred, want)
	}
}

// A request that finds its queue full waits and completes exactly once,
// stamped with its arrival instant. It is admitted, once, when the pick
// ahead of it frees the slot.
func TestWaitingRequestCompletesOnce(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ReadQueueCap = 1
	c := New(eng, cfg, NewRankSet(dram.DDR4_2400(), 1))
	var resps []Response
	var admitted []sim.Time
	arrival := 3 * sim.Nanosecond
	eng.At(arrival, func() {
		// The first read issues at once, the second takes its slot then and
		// issues one burst later, which frees the slot for the third.
		c.Submit(&Request{Addr: 0})
		c.Submit(&Request{Addr: 0x8000})
		c.Submit(&Request{
			Addr:     0x10000,
			Done:     func(r Response) { resps = append(resps, r) },
			Admitted: func() { admitted = append(admitted, eng.Now()) },
		})
		if r, _ := c.Waiting(); r != 2 {
			t.Errorf("%d reads waiting behind a full 1-entry queue, want 2", r)
		}
	})
	eng.Run()
	if len(resps) != 1 || len(admitted) != 1 {
		t.Fatalf("Done fired %d times and Admitted %d times, want once each", len(resps), len(admitted))
	}
	if resps[0].Submitted != arrival {
		t.Fatalf("Submitted = %v, want the arrival at %v", resps[0].Submitted, arrival)
	}
	if want := arrival + c.timing.BurstTime(addrmap.CachelineSize); admitted[0] != want {
		t.Fatalf("admitted at %v, want %v, when the second read issued", admitted[0], want)
	}
	if s := c.Stats(); s.ReadsDone != 3 {
		t.Fatalf("ReadsDone = %d, want 3", s.ReadsDone)
	}
}

// A steady-state submit, issue and completion allocates nothing: queue
// entries are recycled, the completion and pick callbacks are bound once,
// and the caller's Request stays on its stack.
func TestControllerSubmitAllocs(t *testing.T) {
	eng, c, _ := newCtrl(t)
	var done int
	onDone := func(Response) { done++ }
	for i := 0; i < 64; i++ { // warm the entry pool and queue capacity
		c.Submit(&Request{Addr: int64(i) * 64, Write: i%2 == 0, Done: onDone})
	}
	eng.Run()
	i := int64(0)
	avg := testing.AllocsPerRun(1000, func() {
		i++
		c.Submit(&Request{Addr: i * 64, Done: onDone})
		c.Submit(&Request{Addr: i*64 + 0x8000, Write: true})
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("allocs per submit+complete = %v, want 0", avg)
	}
	if done != 64+1001 {
		t.Fatalf("Done fired %d times, want %d", done, 64+1001)
	}
}

// A steady-state transfer allocates nothing: records, transfers and the
// done event are recycled or bound once, so a warm 24-line read transfer
// plus a 24-line write transfer and the Run that completes both allocate
// 0.
func TestControllerTransferAllocs(t *testing.T) {
	eng, c, _ := newCtrl(t)
	var done int
	onDone := func() { done++ }
	send := func(i int64) {
		buf := i % 4096 * addrmap.PageSize
		c.SubmitLines(buf, 24, false, onDone)
		c.SubmitLines(buf+addrmap.SameSubarrayPageStride, 24, true, onDone)
		eng.Run()
	}
	for i := int64(0); i < 8; i++ { // warm the pools and queue capacity
		send(i)
	}
	i := int64(8)
	avg := testing.AllocsPerRun(1000, func() {
		send(i)
		i++
	})
	if avg != 0 {
		t.Fatalf("allocs per read+write transfer = %v, want 0", avg)
	}
	if want := 2 * int(i); done != want {
		t.Fatalf("done fired %d times, want %d", done, want)
	}
}
