package main

import (
	"container/heap"
	"time"
)

// Host time on a shared machine drifts: on the 2-vCPU development VM the
// same call ran 30-60% slower for minutes at a time, far beyond any bound
// worth holding a change to. The benchmark therefore runs a fixed
// reference load, calibrate, in its own child before and after every
// repeat pair, and reports the pair's times scaled by calRefS / (the mean
// of the two kernel times): host seconds at the speed the reference host
// ran the kernel. calibrate is benchmark code, so no change under test can
// move it, and its mix follows the simulator's host work so that it slows
// down with it.

// calRefS is calibrate's time on the reference host (2 vCPUs, Intel Xeon,
// go1.24, GOMAXPROCS=1), so calibrated seconds read like that host's.
const calRefS = 0.35

// calibrate runs the reference load and returns its host seconds. The
// load pairs each of the simulator's kinds of host work with a fixed
// amount of the same work: fresh memory that page-faults in (building
// NetDIMM devices), a binary heap of timed events at a few thousand
// pending (the event engine), and short-lived pointer-linked objects (the
// garbage collector).
func calibrate() float64 {
	start := time.Now()
	big := make([]uint64, 16<<20)
	for i := range big {
		big[i] = uint64(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	h := &calHeap{}
	for i := 0; i < 4096; i++ {
		heap.Push(h, next())
	}
	for i := 0; i < 900_000; i++ {
		t := heap.Pop(h).(uint64)
		heap.Push(h, t+next()%1000)
	}
	type node struct {
		next *node
		pay  [4]uint64
	}
	var head *node
	for i := 0; i < 1_500_000; i++ {
		head = &node{next: head, pay: [4]uint64{uint64(i)}}
		if i%1000 == 0 {
			head = nil
		}
	}
	calSink = big[len(big)-1] + (*h)[0]
	if head != nil {
		calSink += head.pay[0]
	}
	return time.Since(start).Seconds()
}

// calSink keeps the compiler from discarding calibrate's work.
var calSink uint64

type calHeap []uint64

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(v any)        { *h = append(*h, v.(uint64)) }
func (h *calHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}
