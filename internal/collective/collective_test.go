package collective

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"netdimm/internal/sim"
)

func TestOpStringParseRoundTrip(t *testing.T) {
	for _, op := range Ops {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Fatalf("ParseOp(%q) = %v, %v, want %v", op.String(), got, err, op)
		}
	}
	if op, err := ParseOp(""); err != nil || op != AllReduce {
		t.Fatalf("ParseOp(\"\") = %v, %v, want AllReduce", op, err)
	}
	if _, err := ParseOp("alltoall"); err == nil {
		t.Fatal("ParseOp(alltoall) succeeded, want error")
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero", Spec{}, true},
		{"pinned", Spec{Op: "broadcast", Ranks: 16, PayloadBytes: 4096, ChunkBytes: 512}, true},
		{"bad op", Spec{Op: "gather"}, false},
		{"one rank", Spec{Ranks: 1}, false},
		{"too many ranks", Spec{Ranks: MaxRanks + 1}, false},
		{"negative payload", Spec{PayloadBytes: -1}, false},
		{"negative chunk", Spec{ChunkBytes: -1}, false},
		{"MTU chunk", Spec{ChunkBytes: 1514}, true},
		{"chunk above the MTU", Spec{ChunkBytes: 1515}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestPlanStructure cross-checks every send against the receiver's
// schedule: the RecvStep pointer must land on a step that expects exactly
// this message, and every receiving step must be fed by exactly one send.
func TestPlanStructure(t *testing.T) {
	for _, op := range Ops {
		for _, n := range []int{2, 3, 4, 5, 8, 13, 16, 31} {
			p := NewPlan(op, n)
			if p.Ranks != n || len(p.Steps) != n {
				t.Fatalf("%v/%d: plan has %d rank schedules", op, n, len(p.Steps))
			}
			feeds := make([]map[int]int, n) // receiver -> step -> feeding sends
			for r := range feeds {
				feeds[r] = make(map[int]int)
			}
			for r, steps := range p.Steps {
				for i, st := range steps {
					if st.SendTo < 0 {
						continue
					}
					if st.SendTo == r || st.SendTo >= n {
						t.Fatalf("%v/%d: rank %d step %d sends to %d", op, n, r, i, st.SendTo)
					}
					peer := p.Steps[st.SendTo][st.RecvStep]
					if peer.RecvFrom != r || peer.RecvChunk != st.SendChunk {
						t.Fatalf("%v/%d: rank %d step %d send (chunk %d) lands on rank %d step %d expecting from=%d chunk=%d",
							op, n, r, i, st.SendChunk, st.SendTo, st.RecvStep, peer.RecvFrom, peer.RecvChunk)
					}
					feeds[st.SendTo][st.RecvStep]++
				}
			}
			for r, steps := range p.Steps {
				for i, st := range steps {
					want := 0
					if st.RecvFrom >= 0 {
						want = 1
					}
					if feeds[r][i] != want {
						t.Fatalf("%v/%d: rank %d step %d fed by %d sends, want %d", op, n, r, i, feeds[r][i], want)
					}
				}
			}
			wantSteps := map[Op]int{AllReduce: 2 * (n - 1), ReduceScatter: n - 1}
			if w, ok := wantSteps[op]; ok {
				for r, steps := range p.Steps {
					if len(steps) != w {
						t.Fatalf("%v/%d: rank %d has %d steps, want %d", op, n, r, len(steps), w)
					}
				}
			}
		}
	}
}

func TestChunkBoundsPartition(t *testing.T) {
	for _, elems := range []int{0, 1, 7, 8, 100, 129} {
		for _, chunks := range []int{1, 2, 3, 8, 16} {
			next := 0
			for c := 0; c < chunks; c++ {
				lo, hi := ChunkBounds(elems, chunks, c)
				if lo != next || hi < lo {
					t.Fatalf("elems=%d chunks=%d: chunk %d = [%d,%d), want lo=%d", elems, chunks, c, lo, hi, next)
				}
				next = hi
			}
			if next != elems {
				t.Fatalf("elems=%d chunks=%d: partition covers %d elements", elems, chunks, next)
			}
		}
	}
}

// randomVectors draws one vector per rank with values large enough that a
// wrong reduction cannot collide by accident.
func randomVectors(rng *sim.Rand, ranks, elems int) [][]int64 {
	data := make([][]int64, ranks)
	for r := range data {
		data[r] = make([]int64, elems)
		for i := range data[r] {
			data[r][i] = rng.Int63n(1 << 40)
		}
	}
	return data
}

func cloneVectors(v [][]int64) [][]int64 {
	out := make([][]int64, len(v))
	for i := range v {
		out[i] = append([]int64(nil), v[i]...)
	}
	return out
}

// TestExecMatchesReference is the data-plane property test: for random
// rank counts and payload sizes, every op executed over an instant
// in-order transport must reproduce the sequential reference.
func TestExecMatchesReference(t *testing.T) {
	rng := sim.NewRand(7)
	for trial := 0; trial < 40; trial++ {
		ranks := 2 + rng.Intn(16)
		elems := 1 + rng.Intn(200)
		for _, op := range Ops {
			before := randomVectors(rng, ranks, elems)
			data := cloneVectors(before)
			var clock sim.Time
			e := NewExec(NewPlan(op, ranks), data,
				func(src, dst, step, bytes int, deliver func()) { deliver() },
				func(rank int) sim.Time { clock++; return clock })
			for r := 0; r < ranks; r++ {
				e.Launch(r)
			}
			if e.DoneRanks() != ranks {
				rank, steps := e.Progress()
				t.Fatalf("%v/%d ranks: only %d done; rank %d stuck after %d steps", op, ranks, e.DoneRanks(), rank, steps)
			}
			if err := Verify(op, before, data); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if e.Completion() == 0 {
				t.Fatalf("%v/%d: completion not recorded", op, ranks)
			}
		}
	}
}

// TestExecOutOfOrderDelivery drains pending deliveries LIFO, so messages
// systematically overtake each other; the early-arrival buffer must absorb
// the reordering without corrupting the data plane.
func TestExecOutOfOrderDelivery(t *testing.T) {
	rng := sim.NewRand(11)
	for _, op := range Ops {
		for _, ranks := range []int{2, 3, 5, 8} {
			before := randomVectors(rng, ranks, 37)
			data := cloneVectors(before)
			var pending []func()
			var clock sim.Time
			e := NewExec(NewPlan(op, ranks), data,
				func(src, dst, step, bytes int, deliver func()) { pending = append(pending, deliver) },
				func(rank int) sim.Time { clock++; return clock })
			for r := 0; r < ranks; r++ {
				e.Launch(r)
			}
			for len(pending) > 0 {
				d := pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				d()
			}
			if e.DoneRanks() != ranks {
				t.Fatalf("%v/%d: %d ranks done", op, ranks, e.DoneRanks())
			}
			if err := Verify(op, before, data); err != nil {
				t.Fatalf("%v/%d: %v", op, ranks, err)
			}
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	rng := sim.NewRand(3)
	for _, op := range Ops {
		before := randomVectors(rng, 4, 16)
		data := cloneVectors(before)
		e := NewExec(NewPlan(op, 4), data,
			func(src, dst, step, bytes int, deliver func()) { deliver() },
			func(rank int) sim.Time { return 0 })
		for r := 0; r < 4; r++ {
			e.Launch(r)
		}
		if err := Verify(op, before, data); err != nil {
			t.Fatalf("%v: clean run rejected: %v", op, err)
		}
		// Corrupt an element every op's contract covers: for
		// reduce-scatter that is rank r's owned chunk (r+1) mod n.
		lo, _ := ChunkBounds(16, 4, 2)
		data[1][lo]++
		if err := Verify(op, before, data); err == nil {
			t.Fatalf("%v: corruption not detected", op)
		}
	}
}

// TestVerifyReferenceRejectsMismatchedShapes checks the reference form's
// own shape checks: too few ranks, a root of the wrong length, and a rank
// vector of the wrong length.
func TestVerifyReferenceRejectsMismatchedShapes(t *testing.T) {
	sum, root := []int64{3, 4}, []int64{1, 2}
	ok := [][]int64{{3, 4}, {3, 4}}
	if err := VerifyReference(AllReduce, sum, root, ok); err != nil {
		t.Fatalf("matching shapes rejected: %v", err)
	}
	for name, c := range map[string]struct {
		root  []int64
		after [][]int64
	}{
		"one rank":      {root, [][]int64{{3, 4}}},
		"short root":    {[]int64{1}, ok},
		"short vector":  {root, [][]int64{{3, 4}, {3}}},
		"long vector":   {root, [][]int64{{3, 4, 0}, {3, 4}}},
		"wrong element": {root, [][]int64{{3, 4}, {3, 5}}},
	} {
		if err := VerifyReference(AllReduce, sum, c.root, c.after); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestVerifyReferenceNamesFirstMismatch checks the error that names a
// data-plane mismatch: the first wrong element of the first wrong rank in
// the range the op specifies, with its value and the reference's; an
// element outside a reduce-scatter rank's owned chunk is not checked.
func TestVerifyReferenceNamesFirstMismatch(t *testing.T) {
	const ranks, elems = 3, 9
	sum, root := make([]int64, elems), make([]int64, elems)
	for i := range sum {
		sum[i], root[i] = int64(100+i), int64(i)
	}
	for _, c := range []struct {
		op      Op
		want    []int64
		corrupt []int // rank 1's elements, each set to -1
		err     string
	}{
		{AllReduce, sum, nil, ""},
		{AllReduce, sum, []int{5, 6}, "collective: allreduce rank 1 element 5 = -1, want 105"},
		{Broadcast, root, []int{8}, "collective: broadcast rank 1 element 8 = -1, want 8"},
		{ReduceScatter, sum, []int{0}, ""}, // rank 1 owns chunk 2, elements 6..8
		{ReduceScatter, sum, []int{0, 7, 8}, "collective: reducescatter rank 1 element 7 = -1, want 107"},
	} {
		after := make([][]int64, ranks)
		for r := range after {
			after[r] = slices.Clone(c.want)
		}
		for _, i := range c.corrupt {
			after[1][i] = -1
		}
		err := VerifyReference(c.op, sum, root, after)
		if got := fmt.Sprint(err); (err == nil) != (c.err == "") || err != nil && got != c.err {
			t.Errorf("%v corrupting %v: got %v, want %q", c.op, c.corrupt, err, c.err)
		}
	}
}

// TestExecRecyclesPayloads checks that sent payloads are snapshots in
// recycled buffers: a 16-rank allreduce over an instant transport
// allocates far less than one copy of every message it sends.
func TestExecRecyclesPayloads(t *testing.T) {
	const ranks, elems = 16, 4096
	data := randomVectors(sim.NewRand(13), ranks, elems)
	sent := 0
	e := NewExec(NewPlan(AllReduce, ranks), data,
		func(src, dst, step, bytes int, deliver func()) { sent += bytes; deliver() },
		func(rank int) sim.Time { return 0 })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < ranks; r++ {
		e.Launch(r)
	}
	runtime.ReadMemStats(&after)
	if e.DoneRanks() != ranks {
		t.Fatalf("%d ranks done", e.DoneRanks())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(sent)/8 {
		t.Fatalf("run allocated %d B for %d B of messages, want <= %d", got, sent, sent/8)
	}
}

func TestStepSkewAndEnds(t *testing.T) {
	// A two-rank allreduce over a transport that delays rank 1's clock
	// must report the induced skew.
	before := randomVectors(sim.NewRand(5), 2, 8)
	data := cloneVectors(before)
	clocks := []sim.Time{0, 0}
	e := NewExec(NewPlan(AllReduce, 2), data,
		func(src, dst, step, bytes int, deliver func()) { deliver() },
		func(rank int) sim.Time {
			clocks[rank] += sim.Time(1 + rank*9)
			return clocks[rank]
		})
	e.Launch(0)
	e.Launch(1)
	if e.DoneRanks() != 2 {
		t.Fatalf("done ranks = %d", e.DoneRanks())
	}
	if got := len(e.StepEnds(0)); got != 2 {
		t.Fatalf("rank 0 recorded %d step ends, want 2", got)
	}
	if e.StepSkew() == 0 {
		t.Fatal("skewed clocks reported zero step skew")
	}
	if e.Completion() != clocks[1] {
		t.Fatalf("completion %d, want slow rank's clock %d", e.Completion(), clocks[1])
	}
}

func TestNewPlanPanicsBelowTwoRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlan(AllReduce, 1) did not panic")
		}
	}()
	NewPlan(AllReduce, 1)
}

func ExampleVerify() {
	before := [][]int64{{1, 2}, {10, 20}}
	data := cloneVectors(before)
	e := NewExec(NewPlan(AllReduce, 2), data,
		func(src, dst, step, bytes int, deliver func()) { deliver() },
		func(rank int) sim.Time { return 0 })
	e.Launch(0)
	e.Launch(1)
	fmt.Println(Verify(AllReduce, before, data), data[0], data[1])
	// Output: <nil> [11 22] [11 22]
}
