package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"netdimm"
	"netdimm/internal/campaign"
	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// benchReport is the JSON document emitted by `netdimm-sim bench`. It is the
// format of BENCH_seed.json at the repository root; regenerate with
//
//	go run ./cmd/netdimm-sim -n 400 bench > BENCH_seed.json
type benchReport struct {
	// GitRevision and GeneratedUTC stamp the report with its provenance so
	// the perf-trajectory tooling can place it in history. Reports produced
	// before the stamps existed load fine with both fields absent.
	GitRevision  string `json:"git_revision,omitempty"`
	GeneratedUTC string `json:"generated_utc,omitempty"`
	// Host identifies the machine the numbers were taken on. Speedups are
	// meaningless without NumCPU: a 1-core host cannot show parallel gain.
	Host struct {
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	// Sweeps compares sequential (parallelism=1) against all-cores
	// (parallelism=0) wall-clock for the widest fan-out experiments.
	Sweeps []sweepBench `json:"sweeps"`
	// Engine reports the sim kernel hot path, measured with
	// testing.Benchmark so ns/op and allocs/op match `go test -bench`.
	Engine []engineBench `json:"engine"`
	// DeterminismOK records that parallel and sequential runs produced
	// deep-equal results during this report (the full guard lives in
	// internal/experiments/determinism_test.go).
	DeterminismOK bool `json:"determinism_ok"`
}

type sweepBench struct {
	Name         string  `json:"name"`
	Cells        int     `json:"cells"`
	SequentialMs float64 `json:"sequential_ms"`
	ParallelMs   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
}

type engineBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func runBench() error {
	var rep benchReport
	rep.GitRevision = campaign.GitRevision(".")
	rep.GeneratedUTC = time.Now().UTC().Format(time.RFC3339)
	rep.Host.GOOS = runtime.GOOS
	rep.Host.GOARCH = runtime.GOARCH
	rep.Host.NumCPU = runtime.NumCPU()
	rep.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Host.GoVersion = runtime.Version()
	rep.DeterminismOK = true

	n := *packets
	fmt.Fprintf(os.Stderr, "bench: fig12a (%d packets/cell) ...\n", n)
	var seqRows, parRows []netdimm.Fig12aResult
	sb, err := timeSweep("fig12a", 16, func(parallelism int) error {
		rows, err := netdimm.RunFig12a(n, *seed, parallelism)
		if parallelism == 1 {
			seqRows = rows
		} else {
			parRows = rows
		}
		return err
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		rep.DeterminismOK = false
	}
	rep.Sweeps = append(rep.Sweeps, sb)

	fmt.Fprintf(os.Stderr, "bench: ablations ...\n")
	var seqRep, parRep netdimm.AblationReport
	sb, err = timeSweep("ablation", 7, func(parallelism int) error {
		r, err := netdimm.RunAblations(parallelism)
		if parallelism == 1 {
			seqRep = r
		} else {
			parRep = r
		}
		return err
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(seqRep, parRep) {
		rep.DeterminismOK = false
	}
	rep.Sweeps = append(rep.Sweeps, sb)

	fmt.Fprintf(os.Stderr, "bench: racksweep (256 hosts over a 2-leaf clos, %d packets/cell) ...\n", n)
	var seqRack, parRack []netdimm.RackSweepResult
	sb, err = timeSweep("racksweep_256h", 6, func(parallelism int) error {
		rows, _, err := netdimm.RunRackSweep([]int{2}, []float64{0.2}, n, *seed, parallelism)
		if parallelism == 1 {
			seqRack = rows
		} else {
			parRack = rows
		}
		return err
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(seqRack, parRack) {
		rep.DeterminismOK = false
	}
	rep.Sweeps = append(rep.Sweeps, sb)

	fmt.Fprintf(os.Stderr, "bench: sim engine hot path ...\n")
	rep.Engine = append(rep.Engine,
		engineResult("EngineSchedule", benchEngineSchedule),
		engineResult("EngineCancel", benchEngineCancel),
		engineResult("FabricForward", benchFabricForward),
	)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// timeSweep runs body sequentially and with all cores, reporting wall-clock
// for each. The sequential run goes first so the parallel run cannot win by
// warmed caches alone.
func timeSweep(name string, cells int, body func(parallelism int) error) (sweepBench, error) {
	b := sweepBench{Name: name, Cells: cells}
	t0 := time.Now()
	if err := body(1); err != nil {
		return b, err
	}
	b.SequentialMs = ms(time.Since(t0))
	t0 = time.Now()
	if err := body(0); err != nil {
		return b, err
	}
	b.ParallelMs = ms(time.Since(t0))
	if b.ParallelMs > 0 {
		b.Speedup = b.SequentialMs / b.ParallelMs
	}
	return b, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func engineResult(name string, fn func(b *testing.B)) engineBench {
	r := testing.Benchmark(fn)
	return engineBench{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func benchNop() {}

// benchEngineSchedule mirrors BenchmarkEngineSchedule in internal/sim: one
// At+fire round trip per op against a warm arena.
func benchEngineSchedule(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(sim.Time(i), benchNop)
		e.RunUntil(sim.Time(i))
	}
}

// benchFabricForward measures one cross-rack traversal of the leaf/spine
// clos per op: uplink, source leaf, ECMP-picked spine and destination leaf
// (three switch hops), with the engine drained each round so the queues
// stay warm but empty.
func benchFabricForward(b *testing.B) {
	sp := spec.TableOne()
	sp.Fabric.Leaves = 2
	sp.Fabric.Spines = 2
	d := sp.MustDerive()
	eng := sim.NewEngine()
	topo := d.NewTopology(fabric.SingleEngine(eng), 8, 64)
	src, dst := 0, 5 // host 5 sits in the other leaf: the full 3-hop path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delivered := false
		topo.Inject(src, dst, ethernet.Frame{ID: uint64(i), Bytes: 1500},
			func(ethernet.Frame) { delivered = true })
		eng.Run()
		if !delivered {
			b.Fatal("frame not delivered")
		}
	}
}

// benchEngineCancel mirrors BenchmarkEngineCancel: one schedule→cancel→reap
// cycle per op so dead events do not accumulate in the heap.
func benchEngineCancel(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.Schedule(10, benchNop)
		e.Cancel(id)
		e.Run()
	}
}
