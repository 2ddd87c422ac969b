package memctrl

import (
	"fmt"
	"reflect"
	"testing"

	"netdimm/internal/addrmap"
	"netdimm/internal/dram"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
)

// pickRun is everything observable about one random request stream.
type pickRun struct {
	responses []taggedResponse
	doneAt    [][2]int64 // (transfer tag, instant) per SubmitLines done
	stats     Stats
	fired     uint64
	end       sim.Time
	spans     []obs.Span
	depth     []obs.Sample
	// crossings counts the transfers that start mid-row and run into the
	// next row; it describes the stream and is not compared.
	crossings int
}

type taggedResponse struct {
	tag int
	at  sim.Time
	Response
}

// runPickStream drives a controller through a seeded random stream of
// Submits, SubmitLines transfers from random line offsets (some crossing
// an 8 KiB row boundary), foreign events landing just before, at and just
// after upcoming issue slots (some of which submit or Stop), RunUntil
// deadlines, Runs and Stops. With refuse set, an armed watchdog that never
// trips makes every Advance refuse, so every pick and every transfer's
// done is an event. With observed set, a span track and a read-queue
// depth series are attached. With perLine set, every transfer is a submitCountdown
// of per-line Submits in place of one SubmitLines.
func runPickStream(seed uint64, observed, refuse, perLine bool) pickRun {
	eng := sim.NewEngine()
	if refuse {
		eng.SetWatchdog(sim.Watchdog{MaxEvents: 1 << 62})
	}
	c := New(eng, DefaultConfig(), NewRankSet(dram.DDR4_2400(), 2))
	var trk *obs.Track
	var depth *obs.Series
	if observed {
		cell := obs.New(obs.Spec{Trace: true, Metrics: true}, "cell").Cell(0)
		trk, depth = cell.Track("nmc"), cell.Metrics().Series("nmc.readq")
		c.Observe(trk, depth)
	}
	r := sim.NewRand(seed)
	var out pickRun
	tags := 0
	addr := func() int64 {
		return int64(r.Intn(6))*addrmap.SameSubarrayPageStride + int64(r.Intn(128))*addrmap.CachelineSize
	}
	submit := func() {
		tag := tags
		tags++
		req := &Request{Addr: addr(), Write: r.Intn(3) == 0}
		if r.Intn(4) != 0 {
			req.Done = func(resp Response) {
				out.responses = append(out.responses, taggedResponse{tag, eng.Now(), resp})
			}
		}
		c.Submit(req)
	}
	lines := func() {
		tag := tags
		tags++
		a, n, write := addr(), 1+r.Intn(80), r.Intn(2) == 0
		if a%addrmap.RankRowBytes != 0 && a/addrmap.RankRowBytes != (a+int64(n-1)*addrmap.CachelineSize)/addrmap.RankRowBytes {
			out.crossings++
		}
		done := func() {
			out.doneAt = append(out.doneAt, [2]int64{int64(tag), int64(eng.Now())})
		}
		if perLine {
			submitCountdown(c, a, n, write, done)
		} else {
			c.SubmitLines(a, n, write, done)
		}
	}
	burst := c.timing.BurstTime(addrmap.CachelineSize)
	foreign := func() {
		at := max(c.issueAt, eng.Now()) + sim.Time(r.Intn(6))*burst + sim.Time(r.Intn(3)-1)
		eng.At(max(at, eng.Now()), func() {
			switch r.Intn(5) {
			case 0:
				submit()
			case 1:
				lines()
			case 2:
				eng.Stop()
			}
		})
	}
	for op := 0; op < 300; op++ {
		switch r.Intn(9) {
		case 0, 1:
			submit()
		case 2:
			lines()
		case 3, 4:
			foreign()
		case 5:
			eng.RunUntil(eng.Now() + sim.Time(r.Intn(200))*sim.Nanosecond)
		case 6:
			eng.RunUntil(eng.Now() + sim.Time(r.Intn(3000)))
		case 7:
			eng.At(eng.Now()+sim.Time(r.Intn(100))*sim.Nanosecond, eng.Stop)
		case 8:
			eng.Run()
		}
	}
	for eng.Pending() > 0 {
		eng.Run()
	}
	out.stats, out.fired, out.end, out.spans, out.depth = c.Stats(), eng.Fired(), eng.Now(), trk.Spans(), depth.Samples()
	return out
}

// TestInlinePicksMatchEventPicks holds the inline picks and inline
// transfer dones to the event-per-pick scheduler they replace, and the
// transfer records to the per-line Submits they replace: the same
// responses at the same instants, the same transfer completions, Stats, the same end instant and, with a span track attached,
// the same spans and read-queue depth series. Fired must match too, except where per-line Submits
// schedule a completion per line that an unobserved transfer does not.
func TestInlinePicksMatchEventPicks(t *testing.T) {
	crossings := 0
	for seed := uint64(1); seed <= 60; seed++ {
		for _, observed := range []bool{false, true} {
			got := runPickStream(seed, observed, false, false)
			for _, ref := range []struct{ refuse, perLine bool }{{true, false}, {false, true}, {true, true}} {
				want := runPickStream(seed, observed, ref.refuse, ref.perLine)
				if len(want.responses) == 0 || len(want.doneAt) == 0 {
					t.Fatalf("seed %d: stream completed %d requests and %d transfers; want some of each",
						seed, len(want.responses), len(want.doneAt))
				}
				g := got
				if ref.perLine && !observed {
					g.fired, want.fired = 0, 0
				}
				if d := firstDiff(g, want); d != "" {
					t.Fatalf("seed %d observed=%v: inline picks and records differ from event picks=%v, per-line submits=%v: %s",
						seed, observed, ref.refuse, ref.perLine, d)
				}
			}
			crossings += got.crossings
		}
	}
	if crossings == 0 {
		t.Fatal("no transfer started mid-row and crossed into the next row")
	}
}

// firstDiff names the first part of two runs that differs and, for a
// slice, its first differing element; it returns "" for equal runs.
func firstDiff(got, want pickRun) string {
	parts := []struct {
		name string
		g, w any
	}{
		{"responses", got.responses, want.responses},
		{"doneAt", got.doneAt, want.doneAt},
		{"stats", got.stats, want.stats},
		{"fired", got.fired, want.fired},
		{"end", got.end, want.end},
		{"spans", got.spans, want.spans},
		{"depth", got.depth, want.depth},
	}
	for _, p := range parts {
		if reflect.DeepEqual(p.g, p.w) {
			continue
		}
		g, w := reflect.ValueOf(p.g), reflect.ValueOf(p.w)
		if g.Kind() != reflect.Slice {
			return fmt.Sprintf("%s %+v, want %+v", p.name, p.g, p.w)
		}
		for j := 0; j < min(g.Len(), w.Len()); j++ {
			if !reflect.DeepEqual(g.Index(j).Interface(), w.Index(j).Interface()) {
				return fmt.Sprintf("%s[%d] %+v, want %+v", p.name, j, g.Index(j), w.Index(j))
			}
		}
		return fmt.Sprintf("%d %s, want %d", g.Len(), p.name, w.Len())
	}
	return ""
}
