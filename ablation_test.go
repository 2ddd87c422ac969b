package netdimm

import (
	"bytes"
	"testing"
)

func TestRunBandwidth(t *testing.T) {
	rows, err := RunBandwidthWithConfig(DefaultConfig(), 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Sustained() {
			t.Errorf("%s not sustained: %.1f/%.1f Gbps", r.Arch, r.AchievedGbps, r.OfferedGbps)
		}
		if r.PerPacketRx <= 0 {
			t.Errorf("%s missing per-packet time", r.Arch)
		}
	}
}

func TestRunAblations(t *testing.T) {
	rep, err := RunAblationsWithConfig(DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Prefetch) < 3 || len(rep.Clone) != 4 || len(rep.Alloc) != 3 || len(rep.HeaderCache) != 2 {
		t.Fatalf("report shape: %d/%d/%d/%d",
			len(rep.Prefetch), len(rep.Clone), len(rep.Alloc), len(rep.HeaderCache))
	}
	// FPM is the cheapest copy strategy.
	for _, c := range rep.Clone[1:] {
		if rep.Clone[0].PerClone >= c.PerClone {
			t.Errorf("FPM %v should beat %s %v", rep.Clone[0].PerClone, c.Strategy, c.PerClone)
		}
	}
	// The allocCache keeps the FPM rate at ~1 with the cheapest critical
	// path.
	if rep.Alloc[0].FPMRate < 0.9 || rep.Alloc[0].PerAlloc >= rep.Alloc[1].PerAlloc {
		t.Errorf("allocCache row wrong: %+v", rep.Alloc[0])
	}
}

func TestRunMixedChannel(t *testing.T) {
	r, _, err := RunMixedChannelObserved(DefaultConfig(), 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.DDRReads == 0 || r.NetDIMMReads == 0 {
		t.Fatalf("degenerate mix: %+v", r)
	}
	if r.NetDIMMMean <= r.DDRMeanLatency {
		t.Fatal("NetDIMM reads should be slower than DDR reads")
	}
}

func TestReplayTraceFileAPI(t *testing.T) {
	// Generate a trace in memory via the internal writer path used by the
	// CLI, then replay it through the public API.
	events := GenerateTrace(Hadoop, 100, 3)
	if len(events) != 100 {
		t.Fatal("trace generation failed")
	}
	// Round-trip through the binary format.
	var buf bytes.Buffer
	if err := writeTraceForTest(&buf, Hadoop, 3, 100); err != nil {
		t.Fatal(err)
	}
	cluster, rows, err := ReplayTraceFileWithConfig(DefaultConfig(), &buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cluster != "hadoop" {
		t.Fatalf("cluster = %q", cluster)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var nd, dn ReplayResult
	for _, r := range rows {
		switch r.Arch {
		case "NetDIMM":
			nd = r
		case "dNIC":
			dn = r
		}
	}
	if nd.Mean >= dn.Mean {
		t.Fatalf("replay ordering: ND %v vs dNIC %v", nd.Mean, dn.Mean)
	}
}
