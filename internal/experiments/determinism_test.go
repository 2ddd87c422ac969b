package experiments

import (
	"errors"
	"reflect"
	"testing"

	"netdimm/internal/netfunc"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/workload"
)

// The parallel fan-out must be invisible in the results: every sweep runs
// each cell on a fresh engine with per-cell seeds and writes only its own
// pre-sized slice index, so parallelism=8 must produce output deep-equal to
// parallelism=1. This is the guard for that contract — if a future change
// introduces shared mutable state across cells, one of these cases fails
// (and `go test -race ./internal/experiments/...` pinpoints the write).
func TestParallelMatchesSequential(t *testing.T) {
	fig5cfg := DefaultFig5Config()
	fig5cfg.Duration = 200 * sim.Microsecond
	fig12bcfg := DefaultFig12bConfig()
	fig12bcfg.Duration = 100 * sim.Microsecond

	cases := []struct {
		name string
		run  func(parallelism int) (any, error)
	}{
		{"Fig4", func(p int) (any, error) {
			return Fig4(spec.TableOne(), []int{10, 200, 2000}, p), nil
		}},
		{"Fig5", func(p int) (any, error) {
			return Fig5(spec.TableOne(), []sim.Time{sim.Second, 100 * sim.Nanosecond, 5 * sim.Nanosecond}, fig5cfg, p), nil
		}},
		{"Fig11", func(p int) (any, error) {
			rows, _, err := Fig11Observed(spec.TableOne(), []int{64, 1024}, p, obs.Spec{})
			return rows, err
		}},
		{"Fig12a", func(p int) (any, error) {
			return Fig12a(spec.TableOne(), workload.Clusters, PaperSwitchLatencies[:2], 60, 3, p)
		}},
		{"Fig12b", func(p int) (any, error) {
			return Fig12b(spec.TableOne(), workload.Clusters[:2], []netfunc.Kind{netfunc.DPI, netfunc.L3F}, fig12bcfg, p), nil
		}},
		{"PrefetchAblation", func(p int) (any, error) {
			return PrefetchAblation(spec.TableOne(), []int{0, 2, 4}, 15, p), nil
		}},
		{"HeaderCacheAblation", func(p int) (any, error) {
			return HeaderCacheAblation(spec.TableOne(), 60, p), nil
		}},
		{"Bandwidth", func(p int) (any, error) {
			return Bandwidth(spec.TableOne(), 100, p)
		}},
		{"LoadSweep", func(p int) (any, error) {
			cfg := DefaultLoadSweepConfig()
			cfg.Packets = 120
			rows, knees, err := LoadSweep(spec.TableOne(), []float64{0.05, 0.14, 0.2}, cfg, p)
			return []any{rows, knees}, err
		}},
		{"RackSweep", func(p int) (any, error) {
			sp := spec.TableOne()
			sp.Load.Hosts = 12
			cfg := DefaultRackSweepConfig()
			cfg.Packets = 240
			rows, knees, err := RackSweep(sp, []int{2}, []float64{0.1, 0.5}, cfg, p)
			return []any{rows, knees}, err
		}},
		{"RackSweepECNMetrics", func(p int) (any, error) {
			sp := spec.TableOne()
			sp.Load.Hosts = 12
			// Mark on any queued frame so the ECN echo path carries real
			// load in this small configuration.
			sp.Fabric.ECNThreshold = 1
			cfg := DefaultRackSweepConfig()
			cfg.Packets = 240
			rows, knees, o, err := RackSweepObserved(sp, []int{2}, []float64{0.1, 0.5}, cfg, p,
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
			cfg := DefaultFailSweepConfig()
			cfg.Packets = 240
			return FailSweep(sp, []sim.Time{0, 20 * sim.Microsecond}, cfg, p)
		}},
		{"FaultSweep", func(p int) (any, error) {
			sp := spec.TableOne()
			sp.Fault.CorruptProb = 0.002
			sp.Fault.MaxRetries = 8
			sp.Fault.MemTimeoutProb = 0.05
			sp.Fault.MemMaxRetries = 4
			cfg := DefaultFaultSweepConfig()
			cfg.Packets = 80
			return FaultSweep(sp, []float64{0, 0.02, 0.1}, cfg, p)
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
