package memctrl

import (
	"testing"

	"netdimm/internal/addrmap"
	"netdimm/internal/dram"
	"netdimm/internal/sim"
)

// nopProbe is a passive engine probe. Attaching it makes AdvanceN refuse
// runs of more than one event, so the controller issues a lone record's
// lines one pick at a time.
type nopProbe struct{}

func (nopProbe) OnSchedule(sim.Time) {}
func (nopProbe) OnFire(sim.Time)     {}
func (nopProbe) OnCancel(sim.Time)   {}

// runSnapshot is the controller and engine state after one episode of a
// run stream.
type runSnapshot struct {
	now, issueAt         sim.Time
	fired                uint64
	draining             bool
	readPicks, writePick uint64
	stats                Stats
	ranks                dram.Stats
}

// runStream is everything observable about one stream of episodes.
type runStream struct {
	snaps     []runSnapshot
	responses []taggedResponse
	doneAt    [][2]int64
	// Coverage of the episodes, the same in every mode: transfers issued
	// as one lone record, lone write records that cross both watermarks,
	// and lone records whose bypass count reaches StarvationCap.
	lone, drainCross, capped int
}

// Run-stream modes: the run path, a probe that makes it issue line by
// line, and a watchdog that makes every pick an event.
const (
	modeRun = iota
	modeProbe
	modeEvents
)

// runEpisodes drives a controller with a random configuration through a
// seeded stream of episodes and snapshots it after each. The stream opens
// with a lone write record that fills the write queue; every later
// episode is one of: a lone transfer into an idle controller (random
// direction and length, some past the queue cap or across a row
// boundary), a starvation setup (a transfer to a closed row queued together with row hits that
// FR-FCFS serves first, so it is left alone with its bypass count near or
// at StarvationCap), or a burst of random Submits (some with Done) and
// transfers cut by a RunUntil deadline.
func runEpisodes(seed uint64, mode int) runStream {
	r := sim.NewRand(seed)
	cfg := DefaultConfig()
	cfg.StarvationCap = r.Intn(12)
	cfg.ReadQueueCap = 4 + r.Intn(61)
	cfg.WriteQueueCap = 4 + r.Intn(61)
	cfg.WriteHighWatermark = 1 + r.Intn(cfg.WriteQueueCap)
	cfg.WriteLowWatermark = r.Intn(cfg.WriteHighWatermark + 1)
	cfg.TCMD = sim.Time(r.Intn(8)) * sim.Nanosecond
	timing := []dram.Timing{dram.DDR4_2400(), dram.DDR5_4800()}[r.Intn(2)]
	ranks := NewRankSet(timing, 1+r.Intn(2))
	eng := sim.NewEngine()
	switch mode {
	case modeProbe:
		eng.SetProbe(nopProbe{})
	case modeEvents:
		eng.SetWatchdog(sim.Watchdog{MaxEvents: 1 << 62})
	}
	c := New(eng, cfg, ranks)

	var out runStream
	tags := 0
	addr := func(rank, bank, row int) int64 {
		return int64(rank)*addrmap.RankBytes + addrmap.EncodeRank(addrmap.Location{Bank: bank, Row: row})
	}
	lines := func(a int64, n int, write bool) {
		tag := tags
		tags++
		c.SubmitLines(a, n, write, func() {
			out.doneAt = append(out.doneAt, [2]int64{int64(tag), int64(eng.Now())})
		})
	}
	submit := func(a int64, write bool) {
		tag := tags
		tags++
		req := &Request{Addr: a, Write: write}
		if r.Intn(3) != 0 {
			req.Done = func(resp Response) {
				out.responses = append(out.responses, taggedResponse{tag, eng.Now(), resp})
			}
		}
		c.Submit(req)
	}
	queueCap := func(write bool) int {
		if write {
			return cfg.WriteQueueCap
		}
		return cfg.ReadQueueCap
	}
	snap := func() {
		out.snaps = append(out.snaps, runSnapshot{
			now: eng.Now(), issueAt: c.issueAt, fired: eng.Fired(), draining: c.draining,
			readPicks: c.readQ.picks, writePick: c.writeQ.picks,
			stats: c.Stats(), ranks: ranks.Stats(),
		})
	}
	// The opening episode is a lone write record that fills the write
	// queue from a row's start: its picks start the drain at the high
	// watermark and, whenever the low watermark is at least 1, stop it
	// again within the same run.
	out.lone++
	if cfg.WriteLowWatermark >= 1 {
		out.drainCross++
	}
	lines(addr(0, 0, 0), cfg.WriteQueueCap, true)
	eng.Run()
	snap()
	for ep := 0; ep < 40; ep++ {
		rank, bank, row := r.Intn(len(ranks.Ranks)), r.Intn(4), r.Intn(4)
		write := r.Intn(2) == 0
		switch r.Intn(4) {
		case 0, 1: // a lone transfer into an idle controller
			first := r.Intn(128)
			if r.Intn(2) == 0 {
				first = 0
			}
			n := 1 + r.Intn(140)
			if first+n <= 128 && n > 1 && n <= queueCap(write) {
				out.lone++
				if write && n >= cfg.WriteHighWatermark && cfg.WriteLowWatermark >= 1 {
					out.drainCross++
				}
			}
			lines(addr(rank, bank, row)+int64(first)*addrmap.CachelineSize, n, write)
			eng.Run()
		case 2: // a transfer left alone after row hits bypass it
			open := ranks.rank(rank).OpenRow(bank)
			if open < 0 {
				submit(addr(rank, bank, 1), write) // opens row 1
				eng.Run()
				open = 1
			}
			hits := 1 + r.Intn(cfg.StarvationCap+3)
			n := 2 + r.Intn(60)
			if n+hits > queueCap(write) {
				n = 2
			}
			if n+hits <= queueCap(write) {
				other := (bank + 1 + r.Intn(3)) % 4
				lines(addr(rank, other, 2+r.Intn(2)), n, write)
				for h := 0; h < hits; h++ {
					submit(addr(rank, bank, open%4)+int64(h)*addrmap.CachelineSize, write)
				}
				if hits+n-1 >= cfg.StarvationCap {
					out.capped++
				}
			}
			eng.Run()
		case 3: // random traffic cut by a deadline
			for k, m := 0, 1+r.Intn(12); k < m; k++ {
				rank, bank, row := r.Intn(len(ranks.Ranks)), r.Intn(4), r.Intn(4)
				a := addr(rank, bank, row) + int64(r.Intn(128))*addrmap.CachelineSize
				if r.Intn(2) == 0 {
					submit(a, r.Intn(2) == 0)
				} else {
					lines(a, 1+r.Intn(100), r.Intn(2) == 0)
				}
			}
			eng.RunUntil(eng.Now() + sim.Time(r.Intn(400))*sim.Nanosecond)
		}
		snap()
	}
	return out
}

// TestRunMatchesPerLine holds the lone-record run to the per-line picks
// it replaces: with a probe attached (every pick inline, one line each)
// and with a watchdog armed (every pick an event), random streams must
// give the same Responses at the same instants, the same transfer
// completions and, after every episode, the same clock, Fired count,
// issueAt, write-drain mode, per-queue pick counts, controller Stats and
// rank Stats.
func TestRunMatchesPerLine(t *testing.T) {
	var lone, drainCross, capped int
	for seed := uint64(1); seed <= 150; seed++ {
		got := runEpisodes(seed, modeRun)
		for _, mode := range []int{modeProbe, modeEvents} {
			want := runEpisodes(seed, mode)
			for i := range want.snaps {
				if got.snaps[i] != want.snaps[i] {
					t.Fatalf("seed %d mode %d episode %d: run path\n%+v\nper-line\n%+v", seed, mode, i, got.snaps[i], want.snaps[i])
				}
			}
			if d := firstDiff(pickRun{responses: got.responses, doneAt: got.doneAt},
				pickRun{responses: want.responses, doneAt: want.doneAt}); d != "" {
				t.Fatalf("seed %d mode %d: %s", seed, mode, d)
			}
		}
		lone += got.lone
		drainCross += got.drainCross
		capped += got.capped
	}
	t.Logf("lone transfers %d, crossing both watermarks %d, reaching StarvationCap %d", lone, drainCross, capped)
	if lone < 500 || drainCross < 50 || capped < 200 {
		t.Fatalf("streams left a case thin: lone %d, watermark crossings %d, capped %d", lone, drainCross, capped)
	}
}

// TestSteerRunMatchesPerPick holds steerRun's closed form to the per-pick
// steer calls it replaces, for read and write records of several lengths,
// entered with the drain off and on, under ordinary and degenerate
// watermarks and from every write-queue count a lone record can leave.
func TestSteerRunMatchesPerPick(t *testing.T) {
	for _, wm := range [][2]int{{16, 48}, {0, 64}, {5, 5}, {0, 0}} {
		cfg := DefaultConfig()
		cfg.WriteLowWatermark, cfg.WriteHighWatermark = wm[0], wm[1]
		c := New(sim.NewEngine(), cfg, NewRankSet(dram.DDR4_2400(), 1))
		for _, n := range []int{2, 3, 24, 128} {
			for _, write := range []bool{false, true} {
				// A lone record is the only work queued: a write record
				// finds its own n lines in the write queue, a read record
				// none. Other counts cover the closed form beyond that.
				for w := 0; w <= n+cfg.WriteHighWatermark+1; w++ {
					for _, draining := range []bool{false, true} {
						want := draining
						for k, wk := 1, w; k < n; k++ {
							if write {
								wk--
							}
							c.draining = want
							c.steer(wk)
							want = c.draining
						}
						c.draining = draining
						c.steerRun(w, n, write)
						if c.draining != want {
							t.Errorf("watermarks %v, n %d, write %v, w %d, draining %v: steerRun leaves draining %v, per-pick %v",
								wm, n, write, w, draining, c.draining, want)
						}
					}
				}
			}
		}
	}
}
