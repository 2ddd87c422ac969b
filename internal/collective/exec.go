package collective

import (
	"fmt"

	"netdimm/internal/sim"
)

// SendFn is the transport one Exec runs over: deliver `bytes` bytes from
// rank src to rank dst, then call deliver exactly once *on rank dst's
// engine*. step is the receiver's schedule index the message satisfies
// (metadata for tracing; the executor re-derives it on delivery). The
// experiments package implements SendFn with chunked frames through
// fabric.Topology and per-rank TX/RX driver queues; tests implement it
// with an immediate callback.
type SendFn func(src, dst, step, bytes int, deliver func())

// Exec executes one Plan's per-rank state machines event-driven over an
// injected transport. Each rank's machine lives on that rank's engine:
// Launch(r) must be called there, the transport must invoke deliver
// closures there, and all of rank r's state transitions then happen
// single-threaded on that engine, so the data plane needs no locks.
type Exec struct {
	plan Plan
	data [][]int64
	send SendFn
	now  func(rank int) sim.Time

	next     []int             // per-rank index of the current step
	waiting  []bool            // rank is parked on next[r]'s receive
	early    []map[int][]int64 // step -> payload that arrived before its turn
	ends     [][]sim.Time      // per-rank per-step completion instants
	finished []bool            // rank completed its whole schedule
}

// NewExec builds an executor for plan over data (one vector per rank, all
// the same length; mutated in place). now reports a rank's engine clock.
func NewExec(plan Plan, data [][]int64, send SendFn, now func(rank int) sim.Time) *Exec {
	if len(data) != plan.Ranks {
		panic(fmt.Sprintf("collective: plan has %d ranks, data %d", plan.Ranks, len(data)))
	}
	e := &Exec{
		plan: plan, data: data, send: send, now: now,
		next:     make([]int, plan.Ranks),
		waiting:  make([]bool, plan.Ranks),
		early:    make([]map[int][]int64, plan.Ranks),
		ends:     make([][]sim.Time, plan.Ranks),
		finished: make([]bool, plan.Ranks),
	}
	for r := range e.ends {
		e.ends[r] = make([]sim.Time, 0, len(plan.Steps[r]))
	}
	return e
}

// Launch starts rank r's machine; call it on rank r's engine at the
// operation's start instant.
func (e *Exec) Launch(r int) { e.run(r) }

// run advances rank r as far as its dependencies allow: submit the
// current step's send, then either consume an already-arrived receive and
// continue, or park until the transport delivers it.
func (e *Exec) run(r int) {
	steps := e.plan.Steps[r]
	for e.next[r] < len(steps) {
		i := e.next[r]
		st := steps[i]
		if st.SendTo >= 0 {
			e.submit(r, st)
		}
		if st.RecvFrom < 0 {
			e.finish(r)
			continue
		}
		if pay, ok := e.early[r][i]; ok {
			delete(e.early[r], i)
			e.apply(r, st, pay)
			e.finish(r)
			continue
		}
		e.waiting[r] = true
		return
	}
	e.finished[r] = true
}

// submit snapshots the outgoing chunk and hands it to the transport. The
// copy pins the payload at send time; the ring schedules never write a
// chunk after sending it, but the copy keeps that invariant local instead
// of load-bearing across packages.
func (e *Exec) submit(r int, st Step) {
	var pay []int64
	if st.SendChunk >= 0 {
		lo, hi := ChunkBounds(len(e.data[r]), e.plan.Ranks, st.SendChunk)
		pay = append([]int64(nil), e.data[r][lo:hi]...)
	} else {
		pay = append([]int64(nil), e.data[r]...)
	}
	dst, rstep := st.SendTo, st.RecvStep
	e.send(r, dst, rstep, 8*len(pay), func() { e.deliver(dst, rstep, pay) })
}

// deliver lands a message at rank r's machine (on rank r's engine): apply
// it if r is parked on exactly this step, otherwise buffer it. The ring
// and tree transports are FIFO per (src,dst) pair so early arrivals can
// only happen with an out-of-order transport, but buffering keeps the
// executor correct — and deterministic — under any SendFn.
func (e *Exec) deliver(r, step int, pay []int64) {
	if e.waiting[r] && e.next[r] == step {
		e.waiting[r] = false
		e.apply(r, e.plan.Steps[r][step], pay)
		e.finish(r)
		e.run(r)
		return
	}
	if e.early[r] == nil {
		e.early[r] = make(map[int][]int64)
	}
	e.early[r][step] = pay
}

// apply folds a received payload into rank r's vector.
func (e *Exec) apply(r int, st Step, pay []int64) {
	lo, hi := 0, len(e.data[r])
	if st.RecvChunk >= 0 {
		lo, hi = ChunkBounds(len(e.data[r]), e.plan.Ranks, st.RecvChunk)
	}
	if hi-lo != len(pay) {
		panic(fmt.Sprintf("collective: rank %d step payload %d elements, want %d", r, len(pay), hi-lo))
	}
	if st.Reduce {
		for i, x := range pay {
			e.data[r][lo+i] += x
		}
	} else {
		copy(e.data[r][lo:hi], pay)
	}
}

// finish stamps the current step's completion instant and moves on.
func (e *Exec) finish(r int) {
	e.ends[r] = append(e.ends[r], e.now(r))
	e.next[r]++
}

// DoneRanks reports how many ranks have completed their whole schedule; a
// finished run has DoneRanks() == Plan.Ranks, anything less means the
// transport lost a message and the collective stalled. Like the other
// accessors below, call it only after the engines have drained.
func (e *Exec) DoneRanks() int {
	n := 0
	for _, f := range e.finished {
		if f {
			n++
		}
	}
	return n
}

// Progress reports the slowest rank's completed-step count and which rank
// it is — the diagnostic for a stalled run.
func (e *Exec) Progress() (rank, steps int) {
	rank, steps = 0, len(e.ends[0])
	for r := 1; r < e.plan.Ranks; r++ {
		if len(e.ends[r]) < steps {
			rank, steps = r, len(e.ends[r])
		}
	}
	return rank, steps
}

// Completion returns the operation's completion instant: the latest step
// completion across all ranks (zero for an empty or stalled-at-start run).
func (e *Exec) Completion() sim.Time {
	var max sim.Time
	for _, ends := range e.ends {
		if n := len(ends); n > 0 && ends[n-1] > max {
			max = ends[n-1]
		}
	}
	return max
}

// StepSkew returns the worst per-step straggler spread: for every step
// index, the gap between the first and last rank (among ranks whose
// schedule has that step) to complete it, maximised over steps. In a
// well-balanced ring this stays near one chunk's service time; a straggler
// rank or a congested link widens it.
func (e *Exec) StepSkew() sim.Time {
	var worst sim.Time
	for s := 0; ; s++ {
		var lo, hi sim.Time
		seen := false
		for r := range e.ends {
			if s >= len(e.ends[r]) {
				continue
			}
			t := e.ends[r][s]
			if !seen || t < lo {
				lo = t
			}
			if !seen || t > hi {
				hi = t
			}
			seen = true
		}
		if !seen {
			return worst
		}
		if hi-lo > worst {
			worst = hi - lo
		}
	}
}

// StepEnds returns rank r's per-step completion instants (in step order);
// the experiments layer turns them into per-rank trace spans.
func (e *Exec) StepEnds(r int) []sim.Time { return e.ends[r] }
