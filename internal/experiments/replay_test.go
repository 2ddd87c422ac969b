package experiments

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"netdimm/internal/fault"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/trace"
	"netdimm/internal/workload"
)

func TestReplayTrace(t *testing.T) {
	events := workload.NewGenerator(workload.Webserver, 0, 5).Generate(300)
	rows, err := ReplayTrace(spec.TableOne(), events, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ReplayResult{}
	for _, r := range rows {
		byName[r.Arch] = r
		if r.Packets != 300 {
			t.Fatalf("%s packets = %d", r.Arch, r.Packets)
		}
		if !(r.P50 <= r.P99) {
			t.Fatalf("%s percentiles inverted", r.Arch)
		}
	}
	if !(byName["NetDIMM"].Mean < byName["iNIC"].Mean &&
		byName["iNIC"].Mean < byName["dNIC"].Mean) {
		t.Fatalf("replay ordering violated: %+v", byName)
	}
}

// TestReplayMatchesPerPacketReference holds ReplayTrace, which runs on the
// Fig. 12(a) cell and prices dNIC, iNIC and the wire term once per (size,
// locality), to the reference that prices every packet once per
// architecture, field for field: every cluster at two seeds and switch
// latencies of 25 and 200 ns, on Table 1 and the pcie-gen3 system, whose
// dNIC costs differ, at 1 packet and at 1200 (where NetDIMM's receive DMA
// sees more than one DRAM state), and the checked-in hadoop-300 trace.
func TestReplayMatchesPerPacketReference(t *testing.T) {
	gen3 := spec.TableOne()
	gen3.PCIe = "x8 PCIe Gen3"
	check := func(name string, sp spec.Spec, events []workload.Event, sl sim.Time, seed uint64) {
		t.Helper()
		want, err := refReplayTrace(sp, events, sl, seed)
		if err != nil {
			t.Fatal(err)
		}
		sp.SwitchLatNs = int(sl / sim.Nanosecond)
		got, err := ReplayTrace(sp, events, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replay %+v\nwant %+v", name, got, want)
		}
	}
	for _, sp := range []spec.Spec{spec.TableOne(), gen3} {
		for _, cl := range workload.Clusters {
			for _, seed := range []uint64{1, 7} {
				for _, n := range []int{1, 1200} {
					events := workload.NewGenerator(cl, 0, seed+3).Generate(n)
					for _, sl := range []sim.Time{25 * sim.Nanosecond, 200 * sim.Nanosecond} {
						check(fmt.Sprintf("%s %s seed %d n %d at %v", sp.PCIe, cl, seed, n, sl), sp, events, sl, seed)
					}
				}
			}
		}
	}
	f, err := os.Open("../../cmd/netdimm-sim/testdata/hadoop-300.ndtr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, events, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42} {
		for _, sl := range []sim.Time{25 * sim.Nanosecond, 100 * sim.Nanosecond, 200 * sim.Nanosecond} {
			check(fmt.Sprintf("hadoop-300 seed %d at %v", seed, sl), spec.TableOne(), events, sl, seed)
		}
	}
}

// ReplayTrace rejects an event a generator cannot draw, which the cell's
// size-indexed count table cannot hold, naming the event.
func TestReplayRejectsInvalidEvent(t *testing.T) {
	events := workload.NewGenerator(workload.Hadoop, 0, 2).Generate(5)
	events[3].Size = 9000
	if _, err := ReplayTrace(spec.TableOne(), events, 1); err == nil ||
		!strings.Contains(err.Error(), "event 3: packet size 9000") {
		t.Fatalf("err = %v", err)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	if _, err := ReplayTrace(spec.TableOne(), nil, 1); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestReplayTraceFileBadStream(t *testing.T) {
	r := bytes.NewReader([]byte("this is not a trace stream"))
	if _, _, err := ReplayTraceFile(spec.TableOne(), r, 1); err == nil {
		t.Fatal("malformed stream accepted")
	}
}

func TestFaultEndpointsUnknownArch(t *testing.T) {
	d := spec.TableOne().MustDerive()
	eng := sim.NewEngine()
	inj := fault.NewInjector(fault.Spec{}, 1)
	if _, _, _, err := faultEndpoints(d, "quantum", fault.Spec{}, eng, inj, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown architecture") {
		t.Fatalf("err = %v", err)
	}
}

func TestReplayTraceFileRoundTrip(t *testing.T) {
	events := workload.NewGenerator(workload.Hadoop, 0, 9).Generate(150)
	var buf bytes.Buffer
	h := trace.Header{Cluster: workload.Hadoop, Seed: 9, Count: 150}
	if err := trace.Write(&buf, h, events); err != nil {
		t.Fatal(err)
	}
	gotH, rows, err := ReplayTraceFile(spec.TableOne(), &buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gotH.Cluster != workload.Hadoop || len(rows) != 3 {
		t.Fatalf("header %+v rows %d", gotH, len(rows))
	}
}

func TestMixedChannel(t *testing.T) {
	res, err := MixedChannel(spec.TableOne(), 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.DDRReads == 0 || res.NetDIMMReads == 0 {
		t.Fatalf("degenerate mix: %+v", res)
	}
	// The whole point of the asynchronous protocol: NetDIMM reads are
	// slower and non-deterministic, yet the channel serves DDR reads at
	// DDR latency — mixing works.
	if res.DDRMeanLatency <= 0 || res.NetDIMMMean <= 0 {
		t.Fatalf("missing latencies: %+v", res)
	}
	if res.NetDIMMMean <= res.DDRMeanLatency {
		t.Fatalf("NetDIMM reads %v should exceed DDR reads %v",
			res.NetDIMMMean, res.DDRMeanLatency)
	}
	if res.DDRMeanLatency > 200*sim.Nanosecond {
		t.Fatalf("DDR latency %v inflated by NetDIMM traffic", res.DDRMeanLatency)
	}
	if res.MaxOutstandingIDs < 1 {
		t.Fatal("no concurrent asynchronous transactions")
	}
}

func TestMixedChannelOutOfOrder(t *testing.T) {
	res, err := MixedChannel(spec.TableOne(), 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The asynchronous protocol's raison d'etre: fast nCache hits overtake
	// older in-flight misses.
	if res.OutOfOrder == 0 {
		t.Fatalf("no out-of-order completions observed: %+v", res)
	}
}
