package experiments

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"netdimm/internal/obs"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		parallelism, n, want int
	}{
		{1, 10, 1},            // explicit sequential
		{4, 10, 4},            // capped by the knob
		{4, 2, 2},             // capped by the cell count
		{100, 3, 3},           // parallelism far above n
		{0, procs + 5, procs}, // auto: GOMAXPROCS
		{-3, procs + 5, procs},
		{0, 0, 1}, // no cells still resolves to one (idle) worker
		{5, 0, 1},
	}
	for _, tc := range cases {
		if got := workers(tc.parallelism, tc.n); got != tc.want {
			t.Errorf("workers(%d, %d) = %d, want %d", tc.parallelism, tc.n, got, tc.want)
		}
	}
}

func TestForEachCellVisitsEveryIndexOnce(t *testing.T) {
	for _, parallelism := range []int{1, 3, 64} {
		const n = 100
		var visits [n]atomic.Int32
		forEachCell(n, parallelism, func(i int) { visits[i].Add(1) })
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("parallelism %d: cell %d visited %d times", parallelism, i, got)
			}
		}
	}
}

func TestForEachCellZeroCells(t *testing.T) {
	for _, parallelism := range []int{0, 1, 8} {
		called := false
		forEachCell(0, parallelism, func(i int) { called = true })
		if called {
			t.Fatalf("parallelism %d: cell invoked for n=0", parallelism)
		}
	}
}

func TestForEachCellParallelismAboveN(t *testing.T) {
	// More workers than cells: the pool must clamp, drain exactly n cells
	// and terminate (a worker that claims i >= n must exit, not spin).
	var count atomic.Int32
	forEachCell(3, 50, func(i int) { count.Add(1) })
	if got := count.Load(); got != 3 {
		t.Fatalf("ran %d cells, want 3", got)
	}
}

// A cell panic must surface on the caller's goroutine in both the
// sequential and the worker-pool path — the parallel fan-out may not
// swallow it (nor crash the process from a worker goroutine).
func TestForEachCellPanicReRaised(t *testing.T) {
	sentinel := errors.New("cell 7 exploded")
	for _, parallelism := range []int{1, 8} {
		func() {
			defer func() {
				if r := recover(); r != sentinel {
					t.Errorf("parallelism %d: recovered %v, want sentinel", parallelism, r)
				}
			}()
			forEachCell(20, parallelism, func(i int) {
				if i == 7 {
					panic(sentinel)
				}
			})
			t.Errorf("parallelism %d: no panic reached the caller", parallelism)
		}()
	}
}

// TestRunCellsStopsAfterFailure fails cell 0 slowly and cell 5 at once:
// the error is cell 0's at any parallelism, and sequentially no cell runs
// after the failed one.
func TestRunCellsStopsAfterFailure(t *testing.T) {
	for _, parallelism := range []int{1, 2, 4} {
		var ran atomic.Int64
		rows, o, err := runCells(20, parallelism, obs.Spec{}, nil, func(i int, _ *obs.Cell) (int, error) {
			ran.Add(1)
			switch i {
			case 0:
				time.Sleep(5 * time.Millisecond)
				return 0, errors.New("cell 0 failed")
			case 5:
				return 0, errors.New("cell 5 failed")
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 0 failed" || rows != nil || o != nil {
			t.Errorf("parallelism %d: rows %v, observer %v, error %v; want cell 0's error alone", parallelism, rows, o, err)
		}
		if parallelism == 1 && ran.Load() != 1 {
			t.Errorf("sequential: %d cells ran, want 1", ran.Load())
		}
	}
}

func TestFirstError(t *testing.T) {
	e1, e2 := errors.New("one"), errors.New("two")
	if err := firstError([]error{nil, nil, nil}); err != nil {
		t.Errorf("all-nil: %v", err)
	}
	if err := firstError(nil); err != nil {
		t.Errorf("empty slice: %v", err)
	}
	// Cell order, not completion order: the first non-nil wins.
	if err := firstError([]error{nil, e2, e1}); err != e2 {
		t.Errorf("got %v, want %v", err, e2)
	}
}
