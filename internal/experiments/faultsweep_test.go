package experiments

import (
	"errors"
	"strings"
	"testing"

	"netdimm/internal/driver"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// fsTestPackets is the packets per cell of the fault-sweep tests.
const fsTestPackets = 120

// At zero loss with a zero fault spec, the sweep's per-packet samples must
// equal the analytic OneWay latency exactly — the event-driven path adds
// nothing when nothing is injected.
func TestFaultSweepZeroLossMatchesAnalytic(t *testing.T) {
	sp := spec.TableOne()
	rows, err := FaultSweep(sp, []float64{0}, fsTestPackets, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 archs", len(rows))
	}
	d := sp.MustDerive()
	fabric := d.Fabric(d.SwitchLatency)
	p := nic.Packet{Size: nic.MTU}
	want := map[string]sim.Time{
		"dNIC": driver.OneWay(d.NewDNIC(false), d.NewDNIC(false), p, fabric, nil).Total(),
		"iNIC": driver.OneWay(d.NewINIC(false), d.NewINIC(false), p, fabric, nil).Total(),
	}
	for _, r := range rows {
		if r.Delivered != 120 || r.Failed != 0 {
			t.Errorf("%s: delivered/failed = %d/%d, want 120/0", r.Arch, r.Delivered, r.Failed)
		}
		if r.Counters.Any() {
			t.Errorf("%s: fault-free sweep counted faults: %+v", r.Arch, r.Counters)
		}
		if r.Mean != r.P99 {
			t.Errorf("%s: lossless samples vary: mean %v, p99 %v", r.Arch, r.Mean, r.P99)
		}
		if w, ok := want[r.Arch]; ok && r.Mean != w {
			t.Errorf("%s: mean %v, want analytic OneWay %v", r.Arch, r.Mean, w)
		}
	}
}

// Acceptance: with increasing loss, p99 one-way latency is monotonically
// non-decreasing and the retransmit counters are nonzero, for every
// architecture.
func TestFaultSweepLatencyDegradesMonotonically(t *testing.T) {
	sp := spec.TableOne()
	sp.Fault.MaxRetries = 16
	rates := []float64{0, 0.02, 0.1, 0.3}
	rows, err := FaultSweep(sp, rates, fsTestPackets, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	byArch := map[string][]FaultRow{}
	for _, r := range rows {
		byArch[r.Arch] = append(byArch[r.Arch], r)
	}
	for arch, rs := range byArch {
		if len(rs) != len(rates) {
			t.Fatalf("%s: %d rows, want %d", arch, len(rs), len(rates))
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].P99 < rs[i-1].P99 {
				t.Errorf("%s: p99 decreased from %v (loss %g) to %v (loss %g)",
					arch, rs[i-1].P99, rs[i-1].LossRate, rs[i].P99, rs[i].LossRate)
			}
			if rs[i].Mean < rs[i-1].Mean {
				t.Errorf("%s: mean decreased from %v to %v", arch, rs[i-1].Mean, rs[i].Mean)
			}
		}
		last := rs[len(rs)-1]
		if last.Counters.Retransmits == 0 || last.Counters.FramesDropped == 0 {
			t.Errorf("%s at loss %g: counters %+v, want nonzero drops and retransmits",
				arch, last.LossRate, last.Counters)
		}
		if last.Delivered == 0 {
			t.Errorf("%s at loss %g: nothing delivered", arch, last.LossRate)
		}
	}
}

// Acceptance: a livelocked configuration — 100% loss with an unlimited
// retry budget — must terminate through the event-budget watchdog with a
// diagnostic error, not hang.
func TestFaultSweepLivelockTripsWatchdog(t *testing.T) {
	sp := spec.TableOne() // Fault zero: MaxRetries 0 = unlimited
	_, err := FaultSweep(sp, []float64{1}, fsTestPackets, 0, 0)
	if err == nil {
		t.Fatal("100% loss with unlimited retries returned no error")
	}
	var wde *sim.WatchdogError
	if !errors.As(err, &wde) {
		t.Fatalf("err = %v, want a *sim.WatchdogError in the chain", err)
	}
	if !strings.Contains(err.Error(), "event budget") {
		t.Errorf("diagnostic %q missing the event-budget reason", err)
	}
}

// A bounded retry budget at total loss fails every packet but terminates
// normally: recovery gives up per packet instead of spinning.
func TestFaultSweepTotalLossBoundedRetries(t *testing.T) {
	sp := spec.TableOne()
	sp.Fault.MaxRetries = 3
	rows, err := FaultSweep(sp, []float64{1}, fsTestPackets, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Delivered != 0 || r.Failed != 120 {
			t.Errorf("%s: delivered/failed = %d/%d, want 0/120", r.Arch, r.Delivered, r.Failed)
		}
		if r.Counters.DeliveryFailures != 120 {
			t.Errorf("%s: DeliveryFailures = %d, want 120", r.Arch, r.Counters.DeliveryFailures)
		}
	}
}

// The NetDIMM receive path exercises the NVDIMM-P recovery machinery when
// memory faults are armed: RDY losses must show up in the counters and the
// run must still deliver.
func TestFaultSweepMemoryFaults(t *testing.T) {
	sp := spec.TableOne()
	sp.Fault.MemTimeoutProb = 0.3
	sp.Fault.MemMaxRetries = 16
	sp.Fault.MaxRetries = 8
	rows, err := FaultSweep(sp, []float64{0.01}, fsTestPackets, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Arch != "NetDIMM" {
			if r.Counters.MemTimeouts != 0 {
				t.Errorf("%s counted memory faults: %+v", r.Arch, r.Counters)
			}
			continue
		}
		if r.Counters.MemTimeouts == 0 || r.Counters.MemRetries == 0 {
			t.Errorf("NetDIMM counters = %+v, want nonzero RDY losses and retries", r.Counters)
		}
		if r.Delivered == 0 {
			t.Error("NetDIMM delivered nothing under recoverable memory faults")
		}
	}
}

func TestFaultSweepValidatesArch(t *testing.T) {
	if _, err := faultCell(spec.TableOne(), "quantum", 0, fsTestPackets, 0, nil); err == nil {
		t.Fatal("unknown architecture accepted")
	}
}
