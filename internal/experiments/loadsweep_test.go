package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// testLoadSweep runs a trimmed sweep: a short grid that still crosses the
// dNIC knee, few enough packets to stay fast.
func testLoadSweep(t *testing.T, sp spec.Spec, loads []float64) ([]LoadRow, []LoadKnee) {
	t.Helper()
	rows, knees, err := LoadSweep(sp, loads, 600, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows, knees
}

func TestLoadSweepP99MonotoneInLoad(t *testing.T) {
	rows, _ := testLoadSweep(t, spec.TableOne(), DefaultLoadGrid)
	byArch := map[string][]LoadRow{}
	for _, r := range rows {
		byArch[r.Arch] = append(byArch[r.Arch], r)
	}
	for _, arch := range Archs {
		rs := byArch[arch]
		if len(rs) != len(DefaultLoadGrid) {
			t.Fatalf("%s: got %d rows, want %d", arch, len(rs), len(DefaultLoadGrid))
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].Load <= rs[i-1].Load {
				t.Fatalf("%s: rows out of load order: %g after %g", arch, rs[i].Load, rs[i-1].Load)
			}
			if rs[i].P99 < rs[i-1].P99 {
				t.Errorf("%s: p99 not monotone in load: p99(%g)=%v < p99(%g)=%v",
					arch, rs[i].Load, rs[i].P99, rs[i-1].Load, rs[i-1].P99)
			}
			if rs[i].Mean < rs[i-1].Mean {
				t.Errorf("%s: mean not monotone in load: mean(%g)=%v < mean(%g)=%v",
					arch, rs[i].Load, rs[i].Mean, rs[i-1].Load, rs[i-1].Mean)
			}
		}
		for _, r := range rs {
			if r.Delivered == 0 {
				t.Errorf("%s at load %g: nothing delivered", arch, r.Load)
			}
			if r.Delivered+r.Dropped != 600 {
				t.Errorf("%s at load %g: delivered %d + dropped %d != 600 offered",
					arch, r.Load, r.Delivered, r.Dropped)
			}
			if r.P50 > r.P99 || r.P99 > r.P999 {
				t.Errorf("%s at load %g: percentiles out of order: p50=%v p99=%v p999=%v",
					arch, r.Load, r.P50, r.P99, r.P999)
			}
			if r.LinkUtilization < 0 || r.LinkUtilization > 1 {
				t.Errorf("%s at load %g: link utilisation %g outside [0,1]", arch, r.Load, r.LinkUtilization)
			}
		}
	}
}

// The headline ordering claim: the NetDIMM receiver absorbs strictly more
// offered load than the dNIC receiver before its tail departs.
func TestLoadSweepNetDIMMSaturatesAfterDNIC(t *testing.T) {
	_, knees := testLoadSweep(t, spec.TableOne(), DefaultLoadGrid)
	byArch := map[string]LoadKnee{}
	for _, k := range knees {
		byArch[k.Arch] = k
	}
	dn, ok := byArch["dNIC"]
	if !ok {
		t.Fatal("no dNIC knee")
	}
	nd, ok := byArch["NetDIMM"]
	if !ok {
		t.Fatal("no NetDIMM knee")
	}
	if !dn.Saturated {
		t.Fatalf("default grid must saturate dNIC; knee %+v", dn)
	}
	if nd.Knee <= dn.Knee {
		t.Errorf("NetDIMM knee %g not strictly above dNIC knee %g", nd.Knee, dn.Knee)
	}
	in := byArch["iNIC"]
	if in.Knee < dn.Knee || nd.Knee < in.Knee {
		t.Errorf("knee ordering violated: dNIC %g, iNIC %g, NetDIMM %g", dn.Knee, in.Knee, nd.Knee)
	}
}

func TestLoadSweepRejectsBadLoads(t *testing.T) {
	for _, loads := range [][]float64{{0}, {-0.1}, {math.NaN()}, {math.Inf(1)}, {0.1, 0}} {
		if _, _, err := LoadSweep(spec.TableOne(), loads, 0, 0, 1); err == nil {
			t.Errorf("loads %v: no error", loads)
		}
	}
}

func TestLoadSweepRejectsBadLoadBlock(t *testing.T) {
	sp := spec.TableOne()
	sp.Load.Cluster = "mainframe"
	if _, _, err := LoadSweep(sp, []float64{0.05}, 0, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown cluster") {
		t.Errorf("bad cluster: err = %v", err)
	}
	sp = spec.TableOne()
	sp.Load.Process = "bursty"
	if _, _, err := LoadSweep(sp, []float64{0.05}, 0, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown arrival process") {
		t.Errorf("bad process: err = %v", err)
	}
}

// The endpoint builder rejects an unknown architecture for an incast cell
// (the load sweep's).
func TestLoadEndpointsUnknownArch(t *testing.T) {
	d := spec.TableOne().MustDerive()
	if _, _, err := endpoints(d, "quantum", 2, true, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown architecture") {
		t.Errorf("err = %v", err)
	}
}

func TestDetectKnees(t *testing.T) {
	us := sim.Microsecond
	rows := []LoadRow{
		// Deliberately out of load order: DetectKnees must sort per arch.
		{Arch: "dNIC", Load: 0.2, P99: 9 * us},
		{Arch: "dNIC", Load: 0.05, P99: 2 * us},
		{Arch: "dNIC", Load: 0.1, P99: 3 * us},
		{Arch: "NetDIMM", Load: 0.05, P99: 1 * us},
		{Arch: "NetDIMM", Load: 0.1, P99: 1 * us},
		{Arch: "NetDIMM", Load: 0.2, P99: 2 * us},
	}
	knees := DetectKnees(rows, 3)
	if len(knees) != 2 {
		t.Fatalf("got %d knees, want 2", len(knees))
	}
	if k := knees[0]; k.Arch != "dNIC" || k.Knee != 0.1 || !k.Saturated {
		t.Errorf("dNIC knee = %+v, want knee 0.1 saturated", k)
	}
	// iNIC has no rows and is skipped; NetDIMM never exceeds 3x baseline,
	// so it gets the explicit no-knee result rather than the grid's top.
	if k := knees[1]; k.Arch != "NetDIMM" || k.Knee != 0 || k.Saturated {
		t.Errorf("NetDIMM knee = %+v, want no-knee (0, unsaturated)", k)
	}
}

// TestDetectKneesDegenerate pins the no-knee contract on grids the
// detector used to mislabel: empty input, a single-load row (nothing to
// bracket a knee with) and a monotone curve that never crosses the bound
// must all yield an explicit no-knee result, never the last row.
func TestDetectKneesDegenerate(t *testing.T) {
	us := sim.Microsecond
	cases := []struct {
		name string
		rows []LoadRow
		want []LoadKnee
	}{
		{name: "empty", rows: nil, want: nil},
		{
			name: "single row",
			rows: []LoadRow{{Arch: "dNIC", Load: 0.4, P99: 5 * us}},
			want: []LoadKnee{{Arch: "dNIC"}},
		},
		{
			name: "monotone but never saturating",
			rows: []LoadRow{
				{Arch: "iNIC", Load: 0.05, P99: 2 * us},
				{Arch: "iNIC", Load: 0.1, P99: 3 * us},
				{Arch: "iNIC", Load: 0.2, P99: 5 * us},
			},
			want: []LoadKnee{{Arch: "iNIC"}},
		},
		{
			name: "saturating curve keeps its knee",
			rows: []LoadRow{
				{Arch: "NetDIMM", Load: 0.05, P99: 1 * us},
				{Arch: "NetDIMM", Load: 0.1, P99: 2 * us},
				{Arch: "NetDIMM", Load: 0.2, P99: 9 * us},
			},
			want: []LoadKnee{{Arch: "NetDIMM", Knee: 0.1, Saturated: true}},
		},
	}
	for _, c := range cases {
		got := DetectKnees(c.rows, 3)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: DetectKnees = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestLoadSweepObservedMetrics(t *testing.T) {
	rows, _, o, err := LoadSweepObserved(spec.TableOne(), []float64{0.05, 0.15}, 120, 0, 0, obs.Spec{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if o == nil {
		t.Fatal("nil observer with metrics enabled")
	}
	cells := o.Cells()
	if len(cells) != len(rows) {
		t.Fatalf("got %d cells, want %d", len(cells), len(rows))
	}
	if got, want := cells[0].Label(), "loadsweep/dNIC/load=0.05"; got != want {
		t.Errorf("cell 0 label = %q, want %q", got, want)
	}
	for i, c := range cells {
		reg := c.Metrics()
		if reg == nil {
			t.Fatalf("cell %d: nil registry", i)
		}
		arch := rows[i].Arch
		if s := reg.Series(arch + ".rx_queue_depth"); s.Count() == 0 {
			t.Errorf("cell %d (%s): empty rx_queue_depth series", i, c.Label())
		}
		if got := reg.Counter(arch + ".delivered").Value(); got != int64(rows[i].Delivered) {
			t.Errorf("cell %d: delivered counter %d != row %d", i, got, rows[i].Delivered)
		}
		util := reg.Gauge(arch + ".link_util_pct").Value()
		if want := int64(math.Round(rows[i].LinkUtilization * 100)); util != want {
			t.Errorf("cell %d: link_util_pct %d != %d", i, util, want)
		}
		if got := reg.Gauge(arch + ".rx_max_depth").Value(); got != int64(rows[i].RxMaxDepth) {
			t.Errorf("cell %d: rx_max_depth gauge %d != row %d", i, got, rows[i].RxMaxDepth)
		}
	}
	// The higher-load cell must show deeper receiver queues: that is the
	// mechanism the whole sweep exists to expose.
	lowDepth := cells[0].Metrics().Gauge("dNIC.rx_max_depth").Value()
	highDepth := cells[1].Metrics().Gauge("dNIC.rx_max_depth").Value()
	if highDepth <= lowDepth {
		t.Errorf("dNIC rx_max_depth not growing with load: %d at 0.05 vs %d at 0.15", lowDepth, highDepth)
	}
}

// The open-loop generator must hold the packet sequence fixed along the
// load axis — only spacing may change — so the sweep isolates queueing.
func TestLoadSweepHoldsWorkFixedAcrossLoads(t *testing.T) {
	rows, _, err := LoadSweep(spec.TableOne(), []float64{0.02, 0.2}, 200, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same arch, different loads: identical delivered counts and an
	// unloaded p50 strictly below the loaded p50.
	if rows[0].Arch != "dNIC" || rows[1].Arch != "dNIC" {
		t.Fatalf("unexpected row order: %+v", rows[:2])
	}
	if rows[0].Delivered != rows[1].Delivered {
		t.Errorf("delivered count changed with load: %d vs %d", rows[0].Delivered, rows[1].Delivered)
	}
	if rows[0].P50 >= rows[1].P50 {
		t.Errorf("queueing did not raise the loaded median: %v vs %v", rows[0].P50, rows[1].P50)
	}
}

// runFabric is the fabric cells' drain check: a clean drain passes, and a
// frame still on the wire when the engine stops is an error.
func TestRunFabricCatchesFramesInFlight(t *testing.T) {
	build := func() (*sim.Engine, *fabric.Topology) {
		eng := sim.NewEngine()
		topo := fabric.New(fabric.SingleEngine(eng), ethernet.LinkGbps(40), 100*sim.Nanosecond,
			fabric.Spec{Leaves: 2, Spines: 2}, 4, 8)
		topo.Inject(0, 3, ethernet.Frame{ID: 1, Bytes: 1500}, func(ethernet.Frame) {})
		return eng, topo
	}
	eng, topo := build()
	if err := runFabric(eng, topo); err != nil {
		t.Fatalf("clean drain reported %v", err)
	}
	// Stop the engine with the frame between its uplink and the spine:
	// its flight record is still held.
	eng, topo = build()
	eng.At(200*sim.Nanosecond, eng.Stop)
	err := runFabric(eng, topo)
	if err == nil || !strings.Contains(err.Error(), "1 frames neither delivered nor dropped") {
		t.Fatalf("leaked flight not reported: %v", err)
	}
}

// serialServer serves jobs in order, one at a time, and reports its depth
// with the job in service counted until its done has run.
func TestSerialServerOrderAndDepth(t *testing.T) {
	eng := sim.NewEngine()
	s := &serialServer{eng: eng}
	var log []string
	var depths []int
	s.onDepth = func(_ sim.Time, d int) { depths = append(depths, d) }
	for i := 0; i < 3; i++ {
		i := i
		s.Submit(10, func() {
			log = append(log, fmt.Sprintf("%d@%d/%d", i, eng.Now(), s.Depth()))
			if i == 0 {
				s.Submit(5, func() { log = append(log, fmt.Sprintf("late@%d/%d", eng.Now(), s.Depth())) })
			}
		})
	}
	eng.Run()
	want := []string{"0@10/3", "1@20/3", "2@30/2", "late@35/1"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("served %v, want %v", log, want)
	}
	if fmt.Sprint(depths) != "[1 2 3 4 0]" || s.maxDepth != 4 {
		t.Fatalf("depth samples %v (max %d), want [1 2 3 4 0] (max 4)", depths, s.maxDepth)
	}
}
