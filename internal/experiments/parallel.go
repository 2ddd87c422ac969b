package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"netdimm/internal/obs"
)

// Every figure in this package is a sweep over independent simulation
// cells: each cell builds its own sim.Engine and machines, so cells share
// no mutable state and can run on separate goroutines. forEachCell is the
// bounded worker pool that fans them out.
//
// Determinism guarantee: a cell writes only its own index of a pre-sized
// result slice, cell inputs are pure values, and every random stream is
// seeded per cell — so the assembled output is byte-identical to the
// sequential path regardless of scheduling. The guard tests in
// determinism_test.go assert exactly that.
//
// The parallelism knob threaded through this package (and the public Run*
// wrappers) means: <= 0 use runtime.GOMAXPROCS(0), 1 run sequentially,
// N use at most N workers.

// workers resolves a parallelism knob for n cells.
func workers(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// forEachCell runs cell(i) for every i in [0, n) on at most `parallelism`
// goroutines (see the knob semantics above). Cells are claimed from an
// atomic counter, so workers stay busy even when cell costs are skewed. A
// panic in any cell is re-raised on the caller's goroutine after all
// workers have drained, matching the sequential failure mode.
func forEachCell(n, parallelism int, cell func(i int)) {
	w := workers(parallelism, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			cell(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				cell(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// ForEachCell exposes the bounded worker pool to the other harness layers
// (the campaign runner fans its grid cells out through it), with the same
// determinism and panic-propagation contract as the in-package sweeps.
func ForEachCell(n, parallelism int, cell func(i int)) { forEachCell(n, parallelism, cell) }

// runCells runs n cells through forEachCell, handing cell i its
// observability cell, labelled label(i), when ospec enables collection. It
// returns the rows in cell order and the observer (nil with ospec off), or
// the first cell's error.
func runCells[R any](n, parallelism int, ospec obs.Spec, label func(i int) string, cell func(i int, oc *obs.Cell) (R, error)) ([]R, *obs.Observer, error) {
	var o *obs.Observer
	if ospec.Enabled() {
		labels := make([]string, n)
		for i := range labels {
			labels[i] = label(i)
		}
		o = obs.New(ospec, labels...)
	}
	rows := make([]R, n)
	errs := make([]error, n)
	forEachCell(n, parallelism, func(i int) { rows[i], errs[i] = cell(i, o.Cell(i)) })
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	return rows, o, nil
}

// firstError returns the first non-nil error of a per-cell error slice, in
// cell order — the deterministic analogue of the sequential early return.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
