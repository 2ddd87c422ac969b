package memctrl

import (
	"testing"
	"testing/quick"

	"netdimm/internal/dram"
	"netdimm/internal/sim"
)

// Same-address reads must complete in submission order: FR-FCFS prefers
// row hits but scans in queue (age) order, so it never reorders requests
// to one address.
func TestSameAddressOrderingProperty(t *testing.T) {
	f := func(fill []uint16) bool {
		eng := sim.NewEngine()
		c := New(eng, DefaultConfig(), NewRankSet(dram.DDR4_2400(), 1))
		var completions []int
		target := int64(0x4000)
		seq := 0
		for i, v := range fill {
			if i%3 == 0 {
				idx := seq
				seq++
				c.Submit(&Request{Addr: target, Done: func(Response) {
					completions = append(completions, idx)
				}})
			} else {
				c.Submit(&Request{Addr: int64(v) * 64})
			}
			if i%16 == 15 {
				eng.Run()
			}
		}
		eng.Run()
		for i, v := range completions {
			if v != i {
				return false
			}
		}
		return len(completions) == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Bandwidth can never exceed the channel's physical limit.
func TestBandwidthCeilingProperty(t *testing.T) {
	eng := sim.NewEngine()
	tm := dram.DDR4_2400()
	c := New(eng, DefaultConfig(), NewRankSet(tm, 2))
	const n = 4000
	var last sim.Time
	for i := 0; i < n; i++ {
		c.Submit(&Request{Addr: int64(i%512) * 64, Done: func(r Response) { last = r.Completed }})
		if i%32 == 31 {
			eng.Run()
		}
	}
	eng.Run()
	bytes := float64(c.Stats().BytesTransferred)
	gbps := bytes / last.Seconds()
	if gbps > tm.BandwidthBytesPerSec*1.01 {
		t.Fatalf("delivered %.2e B/s exceeds channel limit %.2e", gbps, tm.BandwidthBytesPerSec)
	}
	// And a row-friendly stream should get reasonably close (>50%).
	if gbps < tm.BandwidthBytesPerSec*0.5 {
		t.Fatalf("delivered %.2e B/s, under half the channel limit", gbps)
	}
}

// TCMD is paid by every request.
func TestTCMDContribution(t *testing.T) {
	eng := sim.NewEngine()
	cfgA := DefaultConfig()
	cfgA.TCMD = 0
	cfgB := DefaultConfig()
	cfgB.TCMD = 50 * sim.Nanosecond

	run := func(cfg Config) sim.Time {
		e := sim.NewEngine()
		c := New(e, cfg, NewRankSet(dram.DDR4_2400(), 1))
		var lat sim.Time
		c.Submit(&Request{Addr: 0, Done: func(r Response) { lat = r.Latency() }})
		e.Run()
		return lat
	}
	_ = eng
	d := run(cfgB) - run(cfgA)
	if d != 50*sim.Nanosecond {
		t.Fatalf("TCMD delta = %v, want 50ns", d)
	}
}

// Write draining empties the write queue even with a continuous read
// stream (no write starvation).
func TestWritesEventuallyDrain(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, DefaultConfig(), NewRankSet(dram.DDR4_2400(), 1))
	for i := 0; i < 32; i++ {
		c.Submit(&Request{Addr: int64(i) * 64, Write: true})
	}
	// Interleave reads.
	for i := 0; i < 200; i++ {
		c.Submit(&Request{Addr: int64(i%64) * 64})
		if i%8 == 7 {
			eng.Run()
		}
	}
	eng.Run()
	if c.Stats().WritesDone != 32 {
		t.Fatalf("WritesDone = %d, want 32", c.Stats().WritesDone)
	}
	r, w := c.QueueDepths()
	if r != 0 || w != 0 {
		t.Fatalf("queues not drained: %d/%d", r, w)
	}
}
