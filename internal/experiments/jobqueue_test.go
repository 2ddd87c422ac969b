package experiments

import (
	"slices"
	"testing"

	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// TestJobQueueChunks drives two queues that share one free list through
// random interleaved pushes and drops, against a slice per queue: every
// Head and Len matches, order holds across chunk boundaries, and a queue
// holds exactly the chunks its jobs span, the others being free. Once
// both queues have drained, every chunk either made is free again.
func TestJobQueueChunks(t *testing.T) {
	spare := &chunkList{}
	qs := [2]jobQueue{{spare: spare}, {spare: spare}}
	var want [2][]int
	r := sim.NewRand(39)
	made, next := 0, 0
	check := func(step int) {
		t.Helper()
		held := 0
		for k := range qs {
			q := &qs[k]
			if q.Len() != len(want[k]) {
				t.Fatalf("step %d queue %d: Len %d, want %d", step, k, q.Len(), len(want[k]))
			}
			span := 0 // the chunks the jobs span, from slot head of the first on
			if q.Len() > 0 {
				span = (q.head + q.Len() + chunkJobs - 1) / chunkJobs
				if q.Head().fr.tag != want[k][0] {
					t.Fatalf("step %d queue %d: Head %d, want %d", step, k, q.Head().fr.tag, want[k][0])
				}
			}
			if q.chunks.Len() != span {
				t.Fatalf("step %d queue %d: %d chunks for %d jobs from slot %d", step, k, q.chunks.Len(), q.Len(), q.head)
			}
			held += span
		}
		made = max(made, held+len(spare.free))
		if held+len(spare.free) != made {
			t.Fatalf("step %d: %d chunks held + %d free, but %d were made", step, held, len(spare.free), made)
		}
	}
	for step := 0; step < 20000; step++ {
		k := r.Intn(2)
		q := &qs[k]
		// Drift towards deep queues, then drain: pushes win 3:2 in the
		// first half and lose 2:3 in the second.
		push := r.Intn(5) < 3
		if step >= 10000 {
			push = r.Intn(5) < 2
		}
		if push {
			q.Push(job{fr: frame{tag: next}, service: sim.Time(next)})
			want[k] = append(want[k], next)
			next++
		} else if q.Len() > 0 {
			if j := q.Head(); j.fr.tag != want[k][0] || j.service != sim.Time(want[k][0]) {
				t.Fatalf("step %d queue %d: head job %+v, want tag %d", step, k, *j, want[k][0])
			}
			q.Drop()
			want[k] = want[k][1:]
		}
		check(step)
	}
	for k := range qs {
		for qs[k].Len() > 0 {
			if got := qs[k].Head().fr.tag; got != want[k][0] {
				t.Fatalf("drain queue %d: Head %d, want %d", k, got, want[k][0])
			}
			qs[k].Drop()
			want[k] = want[k][1:]
		}
	}
	check(-1)
	if made < 4 || len(spare.free) != made {
		t.Fatalf("%d chunks made, %d free after draining; want several, all free", made, len(spare.free))
	}
}

// TestJobQueueZeroValue checks that a queue with no free list works and
// allocates chunks of its own.
func TestJobQueueZeroValue(t *testing.T) {
	var q jobQueue
	for i := 0; i < 3*chunkJobs; i++ {
		q.Push(job{fr: frame{tag: i}})
	}
	for i := 0; i < 3*chunkJobs; i++ {
		if q.Head().fr.tag != i {
			t.Fatalf("Head %d, want %d", q.Head().fr.tag, i)
		}
		q.Drop()
	}
	if q.Len() != 0 || q.chunks.Len() != 0 {
		t.Fatalf("drained queue: Len %d, %d chunks", q.Len(), q.chunks.Len())
	}
}

// TestJobPoolSharedAcrossCells runs incast cells past the knee on one
// sweep shape. The first cell's queues fill a free list that goes back to
// the shape's pool when the cell ends; a later cell whose backlog is no
// deeper takes that list and makes no new chunk, so a sweep keeps one
// cell's peak of queued jobs, not the sum over its cells.
func TestJobPoolSharedAcrossCells(t *testing.T) {
	sp := spec.TableOne()
	sp.Load.Hosts = 8
	shape, err := resolveLoad(sp.Load, nil, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(load float64) int {
		c, err := runFabricCell(sp, "dNIC", shape, cellOpts{load: load, packets: 3000,
			eventBudget: 4_000_000, seed: 2, incast: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c.rxMax
	}
	lists := func() []*jobChunk {
		if len(shape.jobs.lists) != 1 {
			t.Fatalf("pool holds %d free lists after a cell, want 1", len(shape.jobs.lists))
		}
		return slices.Clone(shape.jobs.lists[0].free)
	}
	peak := run(0.3)
	first := lists()
	if want := (peak + chunkJobs - 1) / chunkJobs; peak < 4*chunkJobs || len(first) < want {
		t.Fatalf("first cell: RX backlog %d, %d chunks; want a backlog of several chunks and >= %d chunks", peak, len(first), want)
	}
	for _, load := range []float64{0.3, 0.15} {
		if p := run(load); p > peak {
			t.Fatalf("load %g: RX backlog %d deeper than the first cell's %d", load, p, peak)
		}
		if got := lists(); !sameChunks(got, first) {
			t.Errorf("load %g: pool holds %d chunks after the cell, want the first cell's %d", load, len(got), len(first))
		}
	}
}

// sameChunks reports whether a and b hold the same chunks in any order.
func sameChunks(a, b []*jobChunk) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[*jobChunk]bool, len(a))
	for _, c := range a {
		seen[c] = true
	}
	for _, c := range b {
		if !seen[c] {
			return false
		}
	}
	return true
}
