package experiments

import (
	"errors"
	"reflect"
	"testing"

	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// The parallel fan-out must be invisible in the results: every sweep runs
// each cell on a fresh engine with per-cell seeds and writes only its own
// pre-sized slice index, so parallelism=8 must produce output deep-equal to
// parallelism=1. This is the guard for that contract — if a future change
// introduces shared mutable state across cells, one of these cases fails
// (and `go test -race ./internal/experiments/...` pinpoints the write).
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		run  func(parallelism int) (any, error)
	}{
		{"Fig4", func(p int) (any, error) {
			return Fig4(spec.TableOne(), []int{10, 200, 2000}, p), nil
		}},
		{"Fig5", func(p int) (any, error) {
			// Two cells that both run injectors, at the lightest
			// pressures, which simulate the fewest memory events.
			return Fig5(spec.TableOne(), []sim.Time{2 * sim.Microsecond, 500 * sim.Nanosecond}, p), nil
		}},
		{"Fig11", func(p int) (any, error) {
			rows, _, err := Fig11Observed(spec.TableOne(), []int{64, 1024}, p, obs.Spec{})
			return rows, err
		}},
		{"Fig12a", func(p int) (any, error) {
			return Fig12a(spec.TableOne(), 60, 3, p)
		}},
		{"Fig12b", func(p int) (any, error) {
			return Fig12b(spec.TableOne(), p), nil
		}},
		{"PrefetchAblation", func(p int) (any, error) {
			return PrefetchAblation(spec.TableOne(), p), nil
		}},
		{"HeaderCacheAblation", func(p int) (any, error) {
			return HeaderCacheAblation(spec.TableOne(), p), nil
		}},
		{"Bandwidth", func(p int) (any, error) {
			return Bandwidth(spec.TableOne(), 100, p)
		}},
		{"LoadSweep", func(p int) (any, error) {
			rows, knees, err := LoadSweep(spec.TableOne(), []float64{0.05, 0.14, 0.2}, 120, 0, p)
			return []any{rows, knees}, err
		}},
		{"RackSweep", func(p int) (any, error) {
			sp := spec.TableOne()
			sp.Load.Hosts = 12
			rows, knees, err := RackSweep(sp, []int{2}, []float64{0.1, 0.5}, 240, 0, p)
			return []any{rows, knees}, err
		}},
		{"RackSweepECNMetrics", func(p int) (any, error) {
			sp := spec.TableOne()
			sp.Load.Hosts = 12
			// Mark on any queued frame so the ECN echo path carries real
			// load in this small configuration.
			sp.Fabric.ECNThreshold = 1
			rows, knees, o, err := RackSweepObserved(sp, []int{2}, []float64{0.1, 0.5}, 240, 0, p,
				obs.Spec{Metrics: true})
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				if r.Marked > 0 {
					return []any{rows, knees, o.MetricsCSV()}, nil
				}
			}
			return nil, errors.New("no cell marked any frame; the ECN echo path is not being exercised")
		}},
		{"FailSweep", func(p int) (any, error) {
			sp := spec.TableOne()
			sp.Load.Hosts = 12
			return FailSweep(sp, []sim.Time{0, 20 * sim.Microsecond}, 240, 0, p)
		}},
		{"FaultSweep", func(p int) (any, error) {
			sp := spec.TableOne()
			sp.Fault.CorruptProb = 0.002
			sp.Fault.MaxRetries = 8
			sp.Fault.MemTimeoutProb = 0.05
			sp.Fault.MemMaxRetries = 4
			return FaultSweep(sp, []float64{0, 0.02, 0.1}, 80, 0, p)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := tc.run(1)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			par, err := tc.run(8)
			if err != nil {
				t.Fatalf("parallel(8): %v", err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("parallel(8) diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}
}

// The headline suite composes three sweeps; guard it end to end (it is the
// slowest case, so skip under -short).
func TestHeadlineParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("headline determinism check skipped under -short")
	}
	seq, err := RunHeadline(spec.TableOne(), 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunHeadline(spec.TableOne(), 80, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("headline parallel(8) diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}
