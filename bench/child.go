package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"netdimm"
	"netdimm/internal/spec"
)

// Every measured call runs in a fresh child process — the benchmark binary
// re-executing itself with -child — so each repeat starts from the same
// cold heap and its peak RSS is its own. The child prints one childResult
// as JSON on stdout.
//
// Children run with GOMAXPROCS=childProcs. The simulator is
// single-threaded at parallelism 1, so this leaves its work unchanged but
// puts the garbage collector on the same core: host time then counts all
// the CPU work a call needs, and stops depending on whether a second core
// happens to be free. On a shared 2-vCPU host this cut the run-to-run
// spread of latency's wall time from 11% to 1.4%.
const childProcs = 1

// childTimeout bounds one child process; the parent kills a child that
// overruns it and reports the workload as failed.
const childTimeout = 150 * time.Second

// Child kinds.
const (
	kindFull  = "full"
	kindTwin  = "twin"
	kindTrace = "trace"
	kindCal   = "cal"
)

// childResult is one child's report.
type childResult struct {
	// WallS is host seconds spent inside the measured call; process start
	// and the result's encoding are excluded.
	WallS float64 `json:"wall_s"`
	// AllocBytes, Mallocs, NumGC and PauseNs are runtime.MemStats deltas
	// over the call.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	NumGC      uint32 `json:"num_gc"`
	PauseNs    uint64 `json:"gc_pause_ns"`
	// PeakRSSKB is the child's maximum resident set, read by the parent
	// from the child's rusage.
	PeakRSSKB int64        `json:"peak_rss_kb"`
	Call      callResult   `json:"call"`
	Trace     *traceResult `json:"trace,omitempty"`
}

// traceResult is the raw record of one traced pass.
type traceResult struct {
	// WallNs is host time of the traced replica, event-cost replays
	// excluded.
	WallNs    int64                `json:"wall_ns"`
	Rows      []string             `json:"rows"`
	Spans     map[string]spanStats `json:"spans"`
	Engines   []engineCell         `json:"engines"`
	DevEvents [2]uint64            `json:"device_events"`
	DevCalls  [2]uint64            `json:"device_calls"`
	AllocFast uint64               `json:"alloc_fast"`
	AllocSlow uint64               `json:"alloc_slow"`
	Injected  uint64               `json:"injected"`
	Dropped   uint64               `json:"dropped"`
	Generated int                  `json:"generated"`
	// IdleEventNs is the event-cost replay at depth 1, reported as
	// sim.event_ns by workloads without a cell engine.
	IdleEventNs float64     `json:"idle_event_ns"`
	Kalloc      kallocTimes `json:"kalloc"`
}

// runChild runs one child of the given kind and returns its report.
func runChild(kind string, w *workloadDef, seed uint64, chrome string) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", kind, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if chrome != "" {
		args = append(args, "-chrome", chrome)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s %s child: %w", w.name, kind, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return childResult{}, fmt.Errorf("%s %s child: bad report: %w", w.name, kind, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSKB = ru.Maxrss
	}
	return res, nil
}

// childMain is the child side: run one call (or the traced pass) and
// print the report.
func childMain(kind string, w *workloadDef, seed uint64, chrome string) error {
	var res childResult
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	switch kind {
	case kindFull, kindTwin:
		call, err := w.call(seed, kind == kindTwin)
		if err != nil {
			return err
		}
		res.WallS = time.Since(start).Seconds()
		res.Call = call
	case kindCal:
		res.WallS = calibrate()
	case kindTrace:
		t, err := tracePass(w.replica, seed, chrome)
		if err != nil {
			return err
		}
		res.Trace = t
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.Mallocs = after.Mallocs - before.Mallocs
	res.NumGC = after.NumGC - before.NumGC
	res.PauseNs = after.PauseTotalNs - before.PauseTotalNs
	return json.NewEncoder(os.Stdout).Encode(res)
}

// tracePass runs a workload's replica under a tracer, then the event-cost
// and allocCache replays, and writes the first spans to chrome if set.
func tracePass(replica func(uint64, *tracer) ([]string, error), seed uint64, chrome string) (*traceResult, error) {
	tr := newTracer()
	start := time.Now()
	rows, err := replica(seed, tr)
	if err != nil {
		return nil, err
	}
	t := &traceResult{
		WallNs: time.Since(start).Nanoseconds() - tr.replayNs,
		Rows:   rows, Spans: tr.spanStats(), Engines: tr.engines,
		DevEvents: tr.devEvents, DevCalls: tr.devCalls,
		AllocFast: tr.allocFast, AllocSlow: tr.allocSlow,
		Injected: tr.injected, Dropped: tr.dropped, Generated: tr.generated,
		IdleEventNs: eventNs(1),
	}
	if t.Kalloc, err = kallocReplay(spec.Spec(netdimm.DefaultConfig()).MustDerive()); err != nil {
		return nil, err
	}
	if chrome != "" {
		if err := tr.writeChrome(chrome); err != nil {
			return nil, err
		}
	}
	return t, nil
}
