package experiments

import (
	"strings"
	"testing"

	"netdimm/internal/fault"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// testFailSweep runs a trimmed sweep: 16 hosts on the default
// 2-spine/4-leaf clos, few packets.
func testFailSweep(t *testing.T, sp spec.Spec, outages []sim.Time) []FailRow {
	t.Helper()
	if sp.Load.Hosts == 0 {
		sp.Load.Hosts = 16
	}
	rows, err := FailSweep(sp, outages, 480, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFailSweepBaselineAndFailover(t *testing.T) {
	outages := []sim.Time{0, 20 * sim.Microsecond}
	rows := testFailSweep(t, spec.TableOne(), outages)
	if want := len(Archs) * len(outages); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		// With unlimited retries every packet must eventually deliver: the
		// outage eats frames, the ARQ resends them, ECMP routes the resend
		// over the surviving spine.
		if r.Delivered != 480 || r.Failed != 0 {
			t.Errorf("%s outage=%v: delivered %d failed %d, want 480/0",
				r.Arch, r.Outage, r.Delivered, r.Failed)
		}
		if r.DuringDelivered > r.DuringOffered {
			t.Errorf("%s outage=%v: delivered-during %d exceeds offered-during %d",
				r.Arch, r.Outage, r.DuringDelivered, r.DuringOffered)
		}
		if r.Outage == 0 {
			// Baseline: no failure plane at all.
			if r.Rerouted != 0 || r.OutageDrops != 0 || r.Degraded != 0 {
				t.Errorf("%s baseline: rerouted %d outage-drops %d degraded %d, want all 0",
					r.Arch, r.Rerouted, r.OutageDrops, r.Degraded)
			}
			if r.DuringOffered != 0 {
				t.Errorf("%s baseline: %d packets classified inside a zero-length window", r.Arch, r.DuringOffered)
			}
			if r.TimeToReroute != -1 {
				t.Errorf("%s baseline: time-to-reroute %v, want -1", r.Arch, r.TimeToReroute)
			}
			continue
		}
		// Outage cell: ECMP must have failed flows over, promptly.
		if r.Rerouted == 0 {
			t.Errorf("%s outage=%v: no frames rerouted during a spine outage", r.Arch, r.Outage)
		}
		if r.TimeToReroute < 0 || r.TimeToReroute > r.Outage {
			t.Errorf("%s outage=%v: time-to-reroute %v outside [0, outage]", r.Arch, r.Outage, r.TimeToReroute)
		}
		if r.Degraded != 0 {
			t.Errorf("%s outage=%v: %d degraded routings with one spine still up", r.Arch, r.Outage, r.Degraded)
		}
		// Recovery accounting: any frame the outage ate must show up as a
		// retransmission, and recovered packets carry the timer in their
		// latency.
		if r.OutageDrops > 0 {
			if r.Retransmits == 0 {
				t.Errorf("%s outage=%v: %d outage drops but no retransmits", r.Arch, r.Outage, r.OutageDrops)
			}
			if r.Recovered == 0 {
				t.Errorf("%s outage=%v: %d outage drops but nothing recovered", r.Arch, r.Outage, r.OutageDrops)
			}
			if r.MeanRecovery < defaultFailRetryBase {
				t.Errorf("%s outage=%v: mean recovery %v below the %v retransmit timer",
					r.Arch, r.Outage, r.MeanRecovery, defaultFailRetryBase)
			}
		}
	}
}

func TestFailSweepSpineShiftsTraffic(t *testing.T) {
	// Direct topology check that failover moves frames, not just counters:
	// compare per-spine forwarded totals with and without the outage.
	sp := spec.TableOne()
	sp.Load.Hosts = 16
	rows, err := FailSweep(sp, []sim.Time{0, 40 * sim.Microsecond}, 480, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(rows); i += 2 {
		base, out := rows[i], rows[i+1]
		if base.Arch != out.Arch {
			t.Fatalf("row pairing broken: %s vs %s", base.Arch, out.Arch)
		}
		// The outage cell must deliver everything while dropping frames at
		// the dead spine — the extra traffic went over the survivor.
		if out.OutageDrops == 0 && out.Rerouted == 0 {
			t.Errorf("%s: outage cell shows no spine impact at all", out.Arch)
		}
	}
}

func TestFailSweepBurstLossRecovers(t *testing.T) {
	sp := spec.TableOne()
	sp.Load.Hosts = 16
	sp.Fault.Failure.Burst = fault.Burst{
		GoodLossProb: 0.001,
		BadLossProb:  0.3,
		GoodToBad:    0.02,
		BadToGood:    0.2,
	}
	rows := testFailSweep(t, sp, []sim.Time{0})
	sawLoss := false
	for _, r := range rows {
		if r.Delivered != 480 || r.Failed != 0 {
			t.Errorf("%s: delivered %d failed %d under burst loss, want 480/0", r.Arch, r.Delivered, r.Failed)
		}
		if r.BurstDrops > 0 {
			sawLoss = true
			if r.Retransmits == 0 {
				t.Errorf("%s: %d burst drops but no retransmits", r.Arch, r.BurstDrops)
			}
		}
	}
	if !sawLoss {
		t.Error("burst process injected no losses in any cell; raise the probabilities")
	}
}

func TestFailSweepRejectsBadInput(t *testing.T) {
	sp := spec.TableOne()
	sp.Load.Hosts = 16
	const packets = 32

	if _, err := FailSweep(sp, []sim.Time{-sim.Microsecond}, packets, 0, 0); err == nil ||
		!strings.Contains(err.Error(), "negative") {
		t.Errorf("negative outage duration: got %v, want negative-duration error", err)
	}

	one := sp
	one.Load.Hosts = 1
	if _, err := FailSweep(one, []sim.Time{0}, packets, 0, 0); err == nil ||
		!strings.Contains(err.Error(), "hosts") {
		t.Errorf("single host: got %v, want host-count error", err)
	}

	sched := sp
	sched.Fault.Failure.Outages = []fault.Outage{{Kind: fault.OutageSpine, Index: 99, StartNs: 0, EndNs: 10}}
	if _, err := FailSweep(sched, []sim.Time{0}, packets, 0, 0); err == nil {
		t.Error("background schedule naming spine 99 on a 2-spine clos: want arming error")
	}
}
