package ethernet

import (
	"testing"

	"netdimm/internal/sim"
)

func TestPortSerialises(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPort(eng, Link40G(), 16)
	var arrivals []sim.Time
	for i := 0; i < 3; i++ {
		if !p.Send(Frame{ID: uint64(i), Bytes: 1514}, func(Frame) {
			arrivals = append(arrivals, eng.Now())
		}) {
			t.Fatal("send rejected")
		}
	}
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	ser := Link40G().SerializeTime(1514)
	for i := 1; i < len(arrivals); i++ {
		gap := arrivals[i] - arrivals[i-1]
		if gap != ser {
			t.Fatalf("frame %d gap = %v, want serialisation %v", i, gap, ser)
		}
	}
}

func TestPortFIFOOrder(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPort(eng, Link40G(), 16)
	var order []uint64
	for i := 0; i < 5; i++ {
		p.Send(Frame{ID: uint64(i), Bytes: 200}, func(f Frame) { order = append(order, f.ID) })
	}
	eng.Run()
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestPortTailDrop(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPort(eng, Link40G(), 2)
	accepted := 0
	for i := 0; i < 10; i++ {
		if p.Send(Frame{ID: uint64(i), Bytes: 1514}, nil) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted = %d, want capacity 2", accepted)
	}
	eng.Run()
	s := p.Stats()
	if s.Dropped != 8 || s.Forwarded != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPortQueueDelayGrows(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPort(eng, Link40G(), 64)
	for i := 0; i < 10; i++ {
		p.Send(Frame{ID: uint64(i), Bytes: 1514}, nil)
	}
	eng.Run()
	if p.Stats().AvgQueueDelay() <= 0 {
		t.Fatal("burst should accumulate queueing delay")
	}
	if p.Stats().MaxDepth != 10 {
		t.Fatalf("MaxDepth = %d", p.Stats().MaxDepth)
	}
}

func TestPortValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewPort(sim.NewEngine(), Link40G(), 0)
}

// Regression: AvgQueueDelay must be 0 (not a division artifact) before any
// frame finishes transmission, and consistent mid-run — the delay sum
// advances at the same instant as the Forwarded count, never ahead of it.
func TestAvgQueueDelayZeroBeforeFirstCompletion(t *testing.T) {
	if (PortStats{}).AvgQueueDelay() != 0 {
		t.Fatal("zero-forwarded stats should report zero delay")
	}
	eng := sim.NewEngine()
	p := NewPort(eng, Link40G(), 64)
	for i := 0; i < 4; i++ {
		p.Send(Frame{ID: uint64(i), Bytes: 1514}, nil)
	}
	// Nothing has completed at t=0: the frames are queued or on the wire.
	if s := p.Stats(); s.Forwarded != 0 || s.QueueDelaySum != 0 {
		t.Fatalf("pre-completion stats = %+v, want no forwarded and no delay sum", s)
	}
	// Step to just after the first frame's serialisation: exactly one
	// completion, and its (zero) wait is the whole sum; the three still
	// queued must not have leaked into it.
	eng.RunUntil(Link40G().SerializeTime(1514))
	if s := p.Stats(); s.Forwarded != 1 || s.QueueDelaySum != 0 {
		t.Fatalf("mid-run stats = %+v, want Forwarded=1 with the head frame's zero wait", s)
	}
	eng.Run()
	if s := p.Stats(); s.Forwarded != 4 || s.AvgQueueDelay() <= 0 {
		t.Fatalf("drained stats = %+v, want 4 forwarded with positive mean wait", s)
	}
}

// Fan-in determinism: frames arriving at an egress port on the same tick
// from different ingress ports must enter its queue in Send-call order,
// every run.
func TestSwitchFanInDeterministicOrder(t *testing.T) {
	run := func() []uint64 {
		eng := sim.NewEngine()
		sw := NewSwitchNode(eng, Link40G(), 1, 64)
		var order []uint64
		// Eight ingress callbacks all fire at the same instant; each
		// sends one frame to the shared egress port.
		for i := 0; i < 8; i++ {
			id := uint64(i)
			eng.At(500, func() {
				sw.Port(0).Send(Frame{ID: id, Bytes: 200}, func(f Frame) {
					order = append(order, f.ID)
				})
			})
		}
		eng.Run()
		return order
	}
	first := run()
	if len(first) != 8 {
		t.Fatalf("delivered %d frames, want 8", len(first))
	}
	for i, id := range first {
		if id != uint64(i) {
			t.Fatalf("same-tick fan-in out of call order: %v", first)
		}
	}
	for r := 0; r < 3; r++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d reordered fan-in: %v vs %v", r, again, first)
			}
		}
	}
}

// Frames shorter than the PHY latency: a 64 B frame serialises in 17.6 ns
// on 40G (with the Ethernet overhead bytes), well under the 50 ns PHY, so
// several frames are past the wire and inside the PHY at once. Each still arrives exactly one
// serialisation + PHY after its wire slot, in order.
func TestPortOverlappingPHYFlights(t *testing.T) {
	eng := sim.NewEngine()
	link := Link40G()
	p := NewPort(eng, link, 64)
	ser := link.SerializeTime(64)
	if ser >= link.PHYLatency {
		t.Fatalf("serialisation %v not shorter than PHY %v: the test needs overlapping flights", ser, link.PHYLatency)
	}
	var ids []uint64
	var at []sim.Time
	for i := 0; i < 8; i++ {
		p.Send(Frame{ID: uint64(i), Bytes: 64}, func(f Frame) {
			ids = append(ids, f.ID)
			at = append(at, eng.Now())
		})
	}
	eng.Run()
	if len(ids) != 8 {
		t.Fatalf("delivered %d frames, want 8", len(ids))
	}
	for i := range ids {
		want := sim.Time(i+1)*ser + link.PHYLatency
		if ids[i] != uint64(i) || at[i] != want {
			t.Fatalf("frame %d: id %d at %v, want id %d at %v", i, ids[i], at[i], i, want)
		}
	}
}

// ECN: a port at or beyond its threshold marks fresh frames; already-marked
// frames pass through without recounting, and the bit is sticky.
func TestPortECNMarking(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPort(eng, Link40G(), 64)
	p.SetECNThreshold(3)
	var marks, clears int
	deliver := func(f Frame) {
		if f.ECN {
			marks++
		} else {
			clears++
		}
	}
	for i := 0; i < 6; i++ {
		p.Send(Frame{ID: uint64(i), Bytes: 1514}, deliver)
	}
	eng.Run()
	// Frames 0..2 enqueue below the threshold; 3..5 see depth >= 3.
	if marks != 3 || clears != 3 {
		t.Fatalf("marks = %d, clears = %d, want 3/3", marks, clears)
	}
	if s := p.Stats(); s.Marked != 3 {
		t.Fatalf("Marked = %d, want 3", s.Marked)
	}

	// A frame already carrying the bit keeps it and is not recounted.
	eng2 := sim.NewEngine()
	q := NewPort(eng2, Link40G(), 64)
	q.SetECNThreshold(1)
	sticky := false
	q.Send(Frame{ID: 9, Bytes: 64, ECN: true}, func(f Frame) { sticky = f.ECN })
	eng2.Run()
	if !sticky {
		t.Fatal("ECN bit must survive the hop")
	}
	if s := q.Stats(); s.Marked != 0 {
		t.Fatalf("pre-marked frame recounted: Marked = %d", s.Marked)
	}
}

func TestECNThresholdValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative ECN threshold accepted")
		}
	}()
	NewPort(sim.NewEngine(), Link40G(), 4).SetECNThreshold(-1)
}

// Incast: many synchronized senders into one egress port — queueing delay
// grows with fan-in and the buffer eventually drops.
func TestIncastBehaviour(t *testing.T) {
	run := func(senders int) (avg sim.Time, drops uint64) {
		eng := sim.NewEngine()
		p := NewPort(eng, Link40G(), 32)
		for i := 0; i < senders; i++ {
			id := uint64(i)
			eng.At(100*sim.Nanosecond, func() { p.Send(Frame{ID: id, Bytes: 1514}, nil) })
		}
		eng.Run()
		s := p.Stats()
		return s.AvgQueueDelay(), s.Dropped
	}
	avg4, drops4 := run(4)
	avg16, drops16 := run(16)
	_, drops64 := run(64)
	if avg16 <= avg4 {
		t.Fatalf("queue delay should grow with fan-in: %v vs %v", avg16, avg4)
	}
	if drops4 != 0 || drops16 != 0 {
		t.Fatalf("small incast should fit the buffer: %d/%d", drops4, drops16)
	}
	if drops64 == 0 {
		t.Fatal("64-way incast should overflow a 32-frame buffer")
	}
}
