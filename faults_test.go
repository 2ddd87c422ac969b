package netdimm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRunFaultSweep(t *testing.T) {
	rows, _, _, err := RunFaultSweepObserved(DefaultConfig(), []float64{0, 0.05}, 60, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 3 archs x 2 rates", len(rows))
	}
	for _, r := range rows {
		if r.Delivered == 0 {
			t.Errorf("%s at loss %g delivered nothing", r.Arch, r.LossRate)
		}
		if r.LossRate == 0 && r.Counters.Any() {
			t.Errorf("%s lossless row counted faults: %+v", r.Arch, r.Counters)
		}
		if r.LossRate > 0 && r.Counters.Retransmits == 0 {
			t.Errorf("%s at loss %g: no retransmits", r.Arch, r.LossRate)
		}
		if r.P99 < r.P50 || r.P50 <= 0 {
			t.Errorf("%s: implausible percentiles p50=%v p99=%v", r.Arch, r.P50, r.P99)
		}
	}
}

func TestRunFaultSweepScenarioConfig(t *testing.T) {
	cfg, err := LoadScenario("lossy-1pct")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Fault.Enabled() {
		t.Fatal("lossy-1pct scenario has faults disabled")
	}
	rows, _, _, err := RunFaultSweepObserved(cfg, []float64{0.01}, 40, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestRunFaultSweepRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault.CorruptProb = 1.5
	if _, _, _, err := RunFaultSweepObserved(cfg, nil, 10, 0, 1); err == nil {
		t.Fatal("CorruptProb 1.5 accepted")
	}
	for _, rate := range []float64{-0.5, 2, math.NaN()} {
		_, _, _, err := RunFaultSweepObserved(DefaultConfig(), []float64{0, rate}, 10, 0, 1)
		if want := fmt.Sprintf("loss rate %g must be a probability in [0,1]", rate); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("loss rate %g: err = %v, want %q", rate, err, want)
		}
	}
	cfg = DefaultConfig()
	cfg.NetworkGbps = 0
	if _, _, _, err := RunFaultSweepObserved(cfg, nil, 10, 0, 1); err == nil {
		t.Fatal("invalid base config accepted")
	}
}

// The livelock acceptance path through the public facade: unlimited retries
// at 100% loss must come back as a watchdog error, not a hang or a panic.
func TestRunFaultSweepWatchdogError(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, _, _, err := RunFaultSweepObserved(DefaultConfig(), []float64{1}, 30, 0, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("livelock configuration returned no error")
		}
		if !strings.Contains(err.Error(), "watchdog") {
			t.Errorf("err = %v, want a watchdog diagnostic", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("RunFaultSweepObserved hung on a livelock configuration")
	}
}

// guard must convert panics escaping an experiment into returned errors so
// no public WithConfig entry point panics on caller input.
func TestGuardRecoversPanics(t *testing.T) {
	boom := errors.New("boom")
	call := func(f func()) (err error) {
		defer guard(&err)
		f()
		return nil
	}
	if err := call(func() {}); err != nil {
		t.Fatalf("clean call: %v", err)
	}
	if err := call(func() { panic(boom) }); !errors.Is(err, boom) {
		t.Fatalf("error panic: got %v, want wrapped boom", err)
	}
	err := call(func() { panic("string panic") })
	if err == nil || !strings.Contains(err.Error(), "string panic") {
		t.Fatalf("string panic: got %v", err)
	}
}

func TestTableShowsFaultRowOnlyWhenEnabled(t *testing.T) {
	if strings.Contains(DefaultConfig().Table(), "Fault injection") {
		t.Error("default Table() mentions fault injection")
	}
	cfg := DefaultConfig()
	cfg.Fault.CorruptProb = 0.01
	if !strings.Contains(cfg.Table(), "Fault injection") {
		t.Error("Table() missing the fault row with faults enabled")
	}
}
