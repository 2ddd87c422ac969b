package memctrl

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"netdimm/internal/addrmap"
	"netdimm/internal/dram"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
)

// refEntry and refFRFCFS are the FR-FCFS picker in its direct form, kept
// as the reference the O(1) picker must reproduce: a slice queue whose
// entries count their own bypasses, and three passes per pick — a
// starvation scan, a row-hit scan that decodes every address again, and a
// pass that bumps every entry the pick leaves behind.
type refEntry struct {
	addr     int64
	tag      int64
	bypassed int
}

// refFRFCFS returns the index to issue and whether the starvation cap
// forced it.
func refFRFCFS(q []*refEntry, rs *RankSet, starvationCap int) (int, bool) {
	for i, e := range q {
		if e.bypassed >= starvationCap {
			return i, true
		}
	}
	hit := -1
	for i, e := range q {
		if rank, bank, row := addrmap.BankRow(e.addr); rs.rank(rank).OpenRow(bank) == row {
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
	return pick, false
}

// The O(1) picker issues the same request as the reference at every step
// of random submit/pick sequences: random addresses over a few rows per
// bank (so hits, misses and conflicts all occur), SubmitLines transfers
// that the record queue holds as one record per row (some crossing a row
// boundary), rows opened behind the scheduler's back, starvation caps
// 0–20, small queue caps (so lines wait for slots) and both queues. The
// reference queues every line of a transfer as an entry of its own, and
// holds the lines that find a queue full in a per-line FIFO that fills
// each freed slot.
func TestFRFCFSMatchesReference(t *testing.T) {
	var starved, hitsPastHead, linePicks, picks, waited int
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		cfg := DefaultConfig()
		cfg.StarvationCap = rng.IntN(21)
		cfg.ReadQueueCap = 1 + rng.IntN(24)
		cfg.WriteQueueCap = 1 + rng.IntN(24)
		rs := NewRankSet(dram.DDR4_2400(), 1+rng.IntN(2))
		c := New(sim.NewEngine(), cfg, rs)
		var ref, wait [2][]*refEntry // read, write
		caps := [2]int{cfg.ReadQueueCap, cfg.WriteQueueCap}
		admit := func(w int) {
			for len(ref[w]) < caps[w] && len(wait[w]) > 0 {
				ref[w] = append(ref[w], wait[w][0])
				wait[w] = wait[w][1:]
			}
		}
		addr := func() int64 {
			bank := int64(rng.IntN(3))
			row := int64(rng.IntN(3))
			return int64(rng.IntN(2))*addrmap.RankBytes +
				addrmap.EncodeRank(addrmap.Location{Bank: int(bank), Row: int(row)}) +
				int64(rng.IntN(16))*addrmap.CachelineSize
		}
		now := sim.Time(0)
		var tag int64
		for step := 0; step < 500; step++ {
			w := rng.IntN(2)
			write := w == 1
			switch op := rng.IntN(10); {
			case op < 5 && rng.IntN(3) == 0:
				// A transfer's lines carry tag 0 and their own addresses.
				a := addr() + int64(rng.IntN(112))*addrmap.CachelineSize
				n := 1 + rng.IntN(16)
				c.SubmitLines(a, n, write, nil)
				for j := 0; j < n; j++ {
					wait[w] = append(wait[w], &refEntry{addr: a + int64(j)*addrmap.CachelineSize})
				}
				admit(w)
			case op < 5:
				// Bytes doubles as a unique tag: the picker never reads it.
				tag++
				a := addr()
				c.Submit(&Request{Addr: a, Write: write, Bytes: tag})
				wait[w] = append(wait[w], &refEntry{addr: a, tag: tag})
				admit(w)
			case op < 9:
				q := c.queue(write)
				if q.n == 0 {
					continue
				}
				i := c.frfcfs(q)
				got := q.ring[q.slot(i)]
				gotAddr, gotTag := got.req.Addr, got.req.Bytes
				if got.xfer != nil {
					gotTag = 0
				}
				last := q.take(i)
				c.admit(q)
				idx, forced := refFRFCFS(ref[w], rs, cfg.StarvationCap)
				want := ref[w][idx]
				ref[w] = append(ref[w][:idx], ref[w][idx+1:]...)
				admit(w)
				if gotTag != want.tag || gotAddr != want.addr {
					t.Fatalf("seed %d step %d (cap %d, %v queue): picked tag %d at %#x, reference picked tag %d at %#x (index %d, starvation %v)",
						seed, step, cfg.StarvationCap, map[bool]string{false: "read", true: "write"}[write], gotTag, gotAddr, want.tag, want.addr, idx, forced)
				}
				if gotTag != 0 && !last {
					t.Fatalf("seed %d step %d: a Submit's record kept lines after its pick", seed, step)
				}
				picks++
				if forced {
					starved++
				} else if idx > 0 {
					hitsPastHead++
				}
				if gotTag == 0 {
					linePicks++
				}
				// Issue it as pick does, so its row opens.
				now += sim.Time(rng.IntN(50)) * sim.Nanosecond
				got.rank.AccessRow(now, got.bank, got.row, write, addrmap.CachelineSize)
				c.retire(got, last)
			default:
				rs.Access(now, addr(), false, addrmap.CachelineSize)
			}
			waitR, waitW := c.Waiting()
			for w, q := range []*fifo{&c.readQ, &c.writeQ} {
				if n := [2]int{waitR, waitW}[w]; q.n != len(ref[w]) || n != len(wait[w]) {
					t.Fatalf("seed %d step %d: queue %d holds %d lines with %d waiting, reference %d with %d",
						seed, step, w, q.n, n, len(ref[w]), len(wait[w]))
				}
				if len(wait[w]) > 0 {
					waited++
				}
			}
		}
	}
	if starved == 0 || hitsPastHead == 0 || linePicks == 0 || waited == 0 {
		t.Fatalf("%d picks covered %d starvation picks, %d row hits past the head, %d transfer lines and %d steps with lines waiting; want each",
			picks, starved, hitsPastHead, linePicks, waited)
	}
}

// submitCountdown is a transfer as n Submit calls sharing one countdown
// callback: the reference SubmitLines must match.
func submitCountdown(c *Controller, addr int64, n int, write bool, done func()) {
	remaining := n
	line := func(Response) {
		if remaining--; remaining == 0 && done != nil {
			done()
		}
	}
	for i := 0; i < n; i++ {
		c.Submit(&Request{Addr: addr + int64(i)*addrmap.CachelineSize, Write: write, Bytes: addrmap.CachelineSize, Done: line})
	}
}

// transferRun is everything observable about one transfer scenario.
type transferRun struct {
	waiting    []int // lines waiting right after each transfer's submit
	doneAt     []sim.Time
	background []sim.Time
	stats      Stats
	end        sim.Time
	spans      []obs.Span
	fired      uint64
}

// runTransfer submits background requests, an n-line transfer at offset
// into one row and a second one at offset into another from inside the
// first's done, through SubmitLines or through submitCountdown.
func runTransfer(useLines, observed bool, bgSame, bgOther, n int, write bool, offset int64) transferRun {
	eng := sim.NewEngine()
	c := New(eng, DefaultConfig(), NewRankSet(dram.DDR4_2400(), 2))
	var trk *obs.Track
	if observed {
		trk = obs.New(obs.Spec{Trace: true}, "cell").Cell(0).Track("nmc")
		c.Observe(trk, nil)
	}
	var r transferRun
	bg := func(resp Response) { r.background = append(r.background, resp.Completed) }
	for i := 0; i < bgSame+bgOther; i++ {
		a := int64(i%5)*addrmap.SameSubarrayPageStride + int64(i)*addrmap.CachelineSize
		c.Submit(&Request{Addr: a, Write: write == (i < bgSame), Done: bg})
	}
	submit := func(addr int64, done func()) {
		if useLines {
			c.SubmitLines(addr, n, write, done)
		} else {
			submitCountdown(c, addr, n, write, done)
		}
		reads, writes := c.Waiting()
		r.waiting = append(r.waiting, reads+writes)
	}
	submit(0x40000+offset, func() {
		r.doneAt = append(r.doneAt, eng.Now())
		submit(0x80000+offset, func() { r.doneAt = append(r.doneAt, eng.Now()) })
	})
	eng.Run()
	r.stats, r.end, r.spans, r.fired = c.Stats(), eng.Now(), trk.Spans(), eng.Fired()
	return r
}

// SubmitLines is n Submits with a countdown, minus the per-line completion
// events: the same lines admitted at once and waiting, done fired once at
// the same instant, other requests and statistics untouched, and — with a
// span track attached — the same spans in the same order. A transfer
// larger than the free slots is admitted in part and the rest waits.
func TestSubmitLinesMatchesCountdown(t *testing.T) {
	cases := []struct {
		name            string
		bgSame, bgOther int
		n               int
		write           bool
		waiting         int   // lines of the first transfer that wait
		offset          int64 // of each transfer into its 8 KiB row
	}{
		{"all accepted, 1514B RX write", 8, 6, 24, true, 0, 0},
		{"partial, 9000B TX read", 0, 4, 141, false, 77, 0},
		{"all waiting", 64, 3, 10, false, 10, 0},
		{"mid-row, two rows, 1514B RX write", 8, 6, 24, true, 0, addrmap.RankRowBytes - 9*addrmap.CachelineSize},
		{"mid-row, two rows, 1514B TX read", 3, 5, 24, false, 0, addrmap.RankRowBytes - 20*addrmap.CachelineSize},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, observed := range []bool{false, true} {
				want := runTransfer(false, observed, tc.bgSame, tc.bgOther, tc.n, tc.write, tc.offset)
				got := runTransfer(true, observed, tc.bgSame, tc.bgOther, tc.n, tc.write, tc.offset)
				if got.waiting[0] != tc.waiting || len(got.doneAt) != 2 {
					t.Fatalf("observed=%v: %v lines waiting, done fired %d times; want %d waiting first and 2 fires",
						observed, got.waiting, len(got.doneAt), tc.waiting)
				}
				wantFired, gotFired := want.fired, got.fired
				want.fired, got.fired = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("observed=%v: SubmitLines\n %+v\nsubmit countdown\n %+v", observed, got, want)
				}
				switch {
				case observed && gotFired != wantFired:
					t.Fatalf("observed: %d events, want the per-line %d", gotFired, wantFired)
				case !observed && gotFired >= wantFired:
					t.Fatalf("unobserved: %d events, want fewer than the per-line %d", gotFired, wantFired)
				}
			}
		})
	}
}

// New rejects a Config the scheduler cannot run, and an empty rank set.
func TestNewRejectsNonsense(t *testing.T) {
	cases := map[string]func(*Config){
		"read queue cap 0":         func(c *Config) { c.ReadQueueCap = 0 },
		"write queue cap -1":       func(c *Config) { c.WriteQueueCap = -1 },
		"negative starvation cap":  func(c *Config) { c.StarvationCap = -1 },
		"low watermark above high": func(c *Config) { c.WriteLowWatermark = c.WriteHighWatermark + 1 },
		"no ranks":                 nil,
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg, ranks := DefaultConfig(), NewRankSet(dram.DDR4_2400(), 1)
			if mutate != nil {
				mutate(&cfg)
			} else {
				ranks = NewRankSet(dram.DDR4_2400(), 0)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted it")
				}
			}()
			New(sim.NewEngine(), cfg, ranks)
		})
	}
}
