package collective

import (
	"fmt"
	"slices"
)

// Step is one entry of a rank's schedule. A rank executes its steps
// strictly in order: the step's send (if any) is submitted as soon as the
// step begins, and the step completes when its receive (if any) has been
// applied — immediately after the submit for send-only steps. In the ring
// algorithms this ordering IS the data dependency: the chunk a rank sends
// at step s+1 is exactly the chunk it received (and reduced) at step s.
type Step struct {
	// SendTo is the destination rank of this step's message, -1 when the
	// step sends nothing.
	SendTo int
	// SendChunk is the chunk index the message carries; -1 means the
	// whole vector (tree broadcast).
	SendChunk int
	// RecvStep is the index in SendTo's schedule that this message
	// satisfies (the transport delivers it against that slot).
	RecvStep int
	// RecvFrom is the rank this step waits on, -1 when the step receives
	// nothing.
	RecvFrom int
	// RecvChunk is the chunk index the awaited message carries; -1 means
	// the whole vector.
	RecvChunk int
	// Reduce selects how the received chunk is applied: element-wise sum
	// into the local vector (true) or overwrite (false).
	Reduce bool
}

// Plan is a fully-expanded collective schedule: for every rank, the
// ordered steps it executes. Plans are pure data — NewPlan involves no
// simulation state — so tests can check the dependency graph directly and
// the executor stays a small interpreter.
type Plan struct {
	Op    Op
	Ranks int
	// Steps[r] is rank r's schedule.
	Steps [][]Step
}

// NewPlan expands op over n ranks. n must be at least 2.
func NewPlan(op Op, n int) Plan {
	if n < 2 {
		panic(fmt.Sprintf("collective: plan needs at least 2 ranks, got %d", n))
	}
	p := Plan{Op: op, Ranks: n, Steps: make([][]Step, n)}
	switch op {
	case AllReduce:
		for r := 0; r < n; r++ {
			p.Steps[r] = append(ringReduceScatter(r, n), ringAllGather(r, n)...)
		}
	case ReduceScatter:
		for r := 0; r < n; r++ {
			p.Steps[r] = ringReduceScatter(r, n)
		}
	case Broadcast:
		for r := 0; r < n; r++ {
			p.Steps[r] = binomialBroadcast(r, n)
		}
	default:
		panic(fmt.Sprintf("collective: unknown op %d", int(op)))
	}
	return p
}

// MaxSteps returns the longest rank schedule (every rank's length for the
// ring ops; the root's fan-out length for broadcast).
func (p Plan) MaxSteps() int {
	max := 0
	for _, s := range p.Steps {
		if len(s) > max {
			max = len(s)
		}
	}
	return max
}

// ringReduceScatter is rank r's half of the reduce-scatter ring over n
// ranks: at step s it sends chunk (r-s) mod n to its successor and reduces
// chunk (r-s-1) mod n arriving from its predecessor. After the n-1 steps,
// rank r holds the fully-reduced chunk (r+1) mod n.
func ringReduceScatter(r, n int) []Step {
	steps := make([]Step, n-1)
	for s := 0; s < n-1; s++ {
		steps[s] = Step{
			SendTo:    (r + 1) % n,
			SendChunk: mod(r-s, n),
			RecvStep:  s,
			RecvFrom:  mod(r-1, n),
			RecvChunk: mod(r-s-1, n),
			Reduce:    true,
		}
	}
	return steps
}

// ringAllGather is the second half of ring allreduce: at step s rank r
// forwards the reduced chunk (r+1-s) mod n — its own result for s=0, the
// chunk it received one step earlier after that — and stores chunk
// (r-s) mod n from its predecessor. RecvStep offsets by the reduce-scatter
// phase's length because the two phases concatenate into one schedule.
func ringAllGather(r, n int) []Step {
	steps := make([]Step, n-1)
	for s := 0; s < n-1; s++ {
		steps[s] = Step{
			SendTo:    (r + 1) % n,
			SendChunk: mod(r+1-s, n),
			RecvStep:  (n - 1) + s,
			RecvFrom:  mod(r-1, n),
			RecvChunk: mod(r-s, n),
			Reduce:    false,
		}
	}
	return steps
}

// binomialBroadcast is rank r's schedule in a binomial tree rooted at 0:
// in round s, every rank below 2^s sends the whole vector to rank r+2^s.
// A non-root rank therefore receives exactly once — in round
// floor(log2 r), from r-2^floor(log2 r) — and then forwards through the
// remaining rounds, so the tree completes in ceil(log2 n) rounds with no
// global barrier: each subtree races ahead as soon as its root has data.
func binomialBroadcast(r, n int) []Step {
	var steps []Step
	first := 0 // first round this rank may send in
	if r > 0 {
		j := bitLen(r) - 1 // the round r's parent reaches it
		steps = append(steps, Step{
			SendTo: -1, SendChunk: -1, RecvStep: -1,
			RecvFrom: r - 1<<j, RecvChunk: -1, Reduce: false,
		})
		first = j + 1
	}
	for s := first; r+1<<s < n; s++ {
		steps = append(steps, Step{
			SendTo: r + 1<<s, SendChunk: -1,
			// The child's receive is always its step 0.
			RecvStep: 0,
			RecvFrom: -1, RecvChunk: -1,
		})
	}
	return steps
}

// ChunkBounds returns the half-open element range [lo, hi) of chunk c when
// a vector of elems elements is split into `chunks` near-equal chunks
// (the leading elems mod chunks chunks get one extra element).
func ChunkBounds(elems, chunks, c int) (lo, hi int) {
	base := elems / chunks
	extra := elems % chunks
	if c < extra {
		lo = c * (base + 1)
		return lo, lo + base + 1
	}
	lo = extra*(base+1) + (c-extra)*base
	return lo, lo + base
}

// Verify checks an executed collective's data plane against its inputs:
// `before` is every rank's input vector, `after` every rank's vector once
// the op completed. It folds the inputs into the reference
// VerifyReference checks against.
func Verify(op Op, before, after [][]int64) error {
	n := len(before)
	if n < 2 || len(after) != n {
		return fmt.Errorf("collective: verify needs matching rank sets, got %d before / %d after", n, len(after))
	}
	sum := make([]int64, len(before[0]))
	for _, v := range before {
		for i, x := range v {
			sum[i] += x
		}
	}
	return VerifyReference(op, sum, before[0], after)
}

// VerifyReference checks an executed collective's data plane against the
// sequential reference: sum is the element-wise sum of every rank's input
// vector, root is rank 0's input, and `after` is every rank's vector once
// the op completed. For AllReduce every element of every rank must equal
// sum; for Broadcast every rank must equal root; for ReduceScatter only
// rank r's owned chunk (r+1) mod n is specified and checked. A caller that
// draws the inputs can build sum and root as it goes instead of keeping a
// copy of every rank's input.
func VerifyReference(op Op, sum, root []int64, after [][]int64) error {
	n := len(after)
	if n < 2 {
		return fmt.Errorf("collective: verify needs at least 2 ranks, got %d", n)
	}
	elems := len(sum)
	if len(root) != elems {
		return fmt.Errorf("collective: verify reference has %d sum elements but %d root elements", elems, len(root))
	}
	checkRange := func(r, lo, hi int, want []int64) error {
		got, want := after[r][lo:hi], want[lo:hi]
		if slices.Equal(got, want) {
			return nil
		}
		want = want[:len(got)]
		for i, x := range got {
			if x != want[i] {
				return fmt.Errorf("collective: %v rank %d element %d = %d, want %d", op, r, lo+i, x, want[i])
			}
		}
		return nil
	}
	for r := 0; r < n; r++ {
		if len(after[r]) != elems {
			return fmt.Errorf("collective: verify rank %d has %d elements, want %d", r, len(after[r]), elems)
		}
		switch op {
		case AllReduce:
			if err := checkRange(r, 0, elems, sum); err != nil {
				return err
			}
		case Broadcast:
			if err := checkRange(r, 0, elems, root); err != nil {
				return err
			}
		case ReduceScatter:
			lo, hi := ChunkBounds(elems, n, (r+1)%n)
			if err := checkRange(r, lo, hi, sum); err != nil {
				return err
			}
		default:
			return fmt.Errorf("collective: unknown op %d", int(op))
		}
	}
	return nil
}

func mod(a, n int) int { return ((a % n) + n) % n }

// bitLen returns the number of bits needed to represent x (x > 0).
func bitLen(x int) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}
