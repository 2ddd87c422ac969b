package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// testRackSweep runs a trimmed sweep: few hosts, one rack count, a load
// pair straddling the congestion regime.
func testRackSweep(t *testing.T, sp spec.Spec, racks []int, loads []float64) ([]RackRow, []RackKnee) {
	t.Helper()
	if sp.Load.Hosts == 0 {
		sp.Load.Hosts = 16
	}
	rows, knees, err := RackSweep(sp, racks, loads, 320, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows, knees
}

func TestRackSweepShapes(t *testing.T) {
	racks, loads := []int{2}, []float64{0.1, 0.6}
	rows, knees := testRackSweep(t, spec.TableOne(), racks, loads)
	if want := len(Archs) * len(racks) * 2 * len(loads); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	if want := len(Archs) * len(racks) * 2; len(knees) != want {
		t.Fatalf("got %d knees, want %d", len(knees), want)
	}
	for _, r := range rows {
		if r.Racks != 2 {
			t.Errorf("%s: row carries racks=%d, want 2", r.Arch, r.Racks)
		}
		if r.Delivered+r.Dropped != 320 {
			t.Errorf("%s ecn=%v load=%g: delivered %d + dropped %d != 320 offered",
				r.Arch, r.ECN, r.Load, r.Delivered, r.Dropped)
		}
		if r.Delivered == 0 {
			t.Errorf("%s ecn=%v load=%g: nothing delivered", r.Arch, r.ECN, r.Load)
		}
		if r.P50 > r.P99 || r.P99 > r.P999 {
			t.Errorf("%s ecn=%v load=%g: percentiles out of order: p50=%v p99=%v p999=%v",
				r.Arch, r.ECN, r.Load, r.P50, r.P99, r.P999)
		}
		if !r.ECN && r.Marked != 0 {
			t.Errorf("%s load=%g: %d frames marked with ECN off", r.Arch, r.Load, r.Marked)
		}
		if r.LinkUtilization < 0 || r.LinkUtilization > 1 {
			t.Errorf("%s ecn=%v load=%g: link utilisation %g outside [0,1]",
				r.Arch, r.ECN, r.Load, r.LinkUtilization)
		}
		if r.CrossRack <= 0 || r.CrossRack > 320 {
			t.Errorf("%s ecn=%v load=%g: cross-rack count %d outside (0,320]",
				r.Arch, r.ECN, r.Load, r.CrossRack)
		}
	}
	// The destination stream is seeded per host, independent of
	// architecture, load and ECN — so every cell of a given rack count
	// must route the exact same cross-rack packet set.
	for _, r := range rows[1:] {
		if r.CrossRack != rows[0].CrossRack {
			t.Errorf("%s ecn=%v load=%g: cross-rack count %d != %d — destination stream not load-invariant",
				r.Arch, r.ECN, r.Load, r.CrossRack, rows[0].CrossRack)
		}
	}
	// TableOne's database mix is ~90% inter-rack (workload.Clusters): the
	// routed share must land near it.
	share := float64(rows[0].CrossRack) / 320
	if share < 0.75 || share > 1 {
		t.Errorf("cross-rack share %.2f implausible for the database mix (~0.9)", share)
	}
}

// ECN must act only through marking and pacing: with no queue ever
// crossing the threshold, the ECN-on cell is bit-identical to ECN-off.
func TestRackSweepECNIdleAtLowLoad(t *testing.T) {
	rows, _ := testRackSweep(t, spec.TableOne(), []int{2}, []float64{0.02})
	byArch := map[string]map[bool]RackRow{}
	for _, r := range rows {
		if byArch[r.Arch] == nil {
			byArch[r.Arch] = map[bool]RackRow{}
		}
		byArch[r.Arch][r.ECN] = r
	}
	for arch, pair := range byArch {
		off, on := pair[false], pair[true]
		if on.Marked != 0 {
			// Marking did engage; pacing may legitimately shift latency.
			continue
		}
		off.ECN, off.Hist, on.Hist = true, nil, nil
		if off != on {
			t.Errorf("%s: unmarked ECN-on cell diverged from ECN-off:\noff: %+v\non:  %+v", arch, off, on)
		}
	}
}

func TestDetectRackKnees(t *testing.T) {
	us := sim.Microsecond
	rows := []RackRow{
		// Deliberately out of load order: the detector sorts per curve.
		{Arch: "dNIC", Racks: 2, ECN: false, Load: 0.2, P99: 9 * us},
		{Arch: "dNIC", Racks: 2, ECN: false, Load: 0.05, P99: 2 * us},
		{Arch: "dNIC", Racks: 2, ECN: false, Load: 0.1, P99: 3 * us},
		// Same arch and racks, ECN on: a separate curve that rides out the
		// whole grid.
		{Arch: "dNIC", Racks: 2, ECN: true, Load: 0.05, P99: 2 * us},
		{Arch: "dNIC", Racks: 2, ECN: true, Load: 0.1, P99: 3 * us},
		{Arch: "dNIC", Racks: 2, ECN: true, Load: 0.2, P99: 5 * us},
		// Same arch, more racks: yet another curve.
		{Arch: "dNIC", Racks: 4, ECN: false, Load: 0.05, P99: 2 * us},
		{Arch: "dNIC", Racks: 4, ECN: false, Load: 0.2, P99: 7 * us},
	}
	knees := DetectRackKnees(rows, 3)
	if len(knees) != 3 {
		t.Fatalf("got %d knees, want 3: %+v", len(knees), knees)
	}
	if k := knees[0]; k.Arch != "dNIC" || k.Racks != 2 || k.ECN || k.Knee != 0.1 || !k.Saturated {
		t.Errorf("ecn-off knee = %+v, want knee 0.1 saturated", k)
	}
	// The ECN-on curve rides out the whole grid: explicit no-knee result.
	if k := knees[1]; !k.ECN || k.Knee != 0 || k.Saturated {
		t.Errorf("ecn-on knee = %+v, want no-knee (0, unsaturated)", k)
	}
	if k := knees[2]; k.Racks != 4 || k.Knee != 0.05 || !k.Saturated {
		t.Errorf("racks=4 knee = %+v, want knee 0.05 saturated", k)
	}
}

// TestDetectRackKneesDegenerate pins the same no-knee contract as
// TestDetectKneesDegenerate on the per-curve rack detector.
func TestDetectRackKneesDegenerate(t *testing.T) {
	us := sim.Microsecond
	cases := []struct {
		name string
		rows []RackRow
		want []RackKnee
	}{
		{name: "empty", rows: nil, want: nil},
		{
			name: "single row per curve",
			rows: []RackRow{{Arch: "dNIC", Racks: 2, Load: 0.4, P99: 5 * us}},
			want: []RackKnee{{Arch: "dNIC", Racks: 2}},
		},
		{
			name: "monotone but never saturating",
			rows: []RackRow{
				{Arch: "iNIC", Racks: 4, ECN: true, Load: 0.05, P99: 2 * us},
				{Arch: "iNIC", Racks: 4, ECN: true, Load: 0.1, P99: 4 * us},
				{Arch: "iNIC", Racks: 4, ECN: true, Load: 0.2, P99: 5 * us},
			},
			want: []RackKnee{{Arch: "iNIC", Racks: 4, ECN: true}},
		},
	}
	for _, c := range cases {
		got := DetectRackKnees(c.rows, 3)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: DetectRackKnees = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestRackSpines(t *testing.T) {
	cases := []struct{ hosts, racks, want int }{
		{256, 2, 16}, // 128 hosts per leaf, 8:1
		{256, 4, 8},
		{256, 8, 4},
		{16, 2, 2}, // floor: ECMP needs a choice
		{8, 8, 2},
		{100, 3, 5}, // ceil(34/8)
	}
	for _, c := range cases {
		if got := rackSpines(c.hosts, c.racks); got != c.want {
			t.Errorf("rackSpines(%d, %d) = %d, want %d", c.hosts, c.racks, got, c.want)
		}
	}
}

func TestRackSweepRejectsBadInput(t *testing.T) {
	if _, _, err := RackSweep(spec.TableOne(), []int{0}, nil, 0, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "rack count") {
		t.Errorf("racks {0}: err = %v", err)
	}
	for _, loads := range [][]float64{{0}, {-0.1}, {math.NaN()}, {math.Inf(1)}} {
		if _, _, err := RackSweep(spec.TableOne(), []int{2}, loads, 0, 0, 1); err == nil {
			t.Errorf("loads %v: no error", loads)
		}
	}
	sp := spec.TableOne()
	sp.Load.Hosts = 1
	if _, _, err := RackSweep(sp, []int{2}, []float64{0.1}, 0, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "at least 2 hosts") {
		t.Errorf("hosts=1: err = %v", err)
	}
	sp = spec.TableOne()
	sp.Load.Cluster = "mainframe"
	if _, _, err := RackSweep(sp, []int{2}, []float64{0.1}, 0, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown cluster") {
		t.Errorf("bad cluster: err = %v", err)
	}
}

// The endpoint builder rejects an unknown architecture for a many-to-many
// cell (the rack, failure and collective sweeps').
func TestRackEndpointsUnknownArch(t *testing.T) {
	d := spec.TableOne().MustDerive()
	if _, _, err := endpoints(d, "quantum", 2, false, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown architecture") {
		t.Errorf("err = %v", err)
	}
}

// A spec whose Fabric block pins Leaves replaces the rack axis.
func TestRackSweepSpecPinsLeaves(t *testing.T) {
	sp := spec.TableOne()
	sp.Load.Hosts = 12
	sp.Fabric.Leaves = 3
	rows, _ := testRackSweep(t, sp, nil, []float64{0.1})
	if want := len(Archs) * 2; len(rows) != want {
		t.Fatalf("got %d rows, want %d (pinned rack axis)", len(rows), want)
	}
	for _, r := range rows {
		if r.Racks != 3 {
			t.Errorf("%s: racks = %d, want pinned 3", r.Arch, r.Racks)
		}
	}
}

func TestRackSweepObservedMetrics(t *testing.T) {
	sp := spec.TableOne()
	sp.Load.Hosts = 16
	rows, _, o, err := RackSweepObserved(sp, []int{2}, []float64{0.1, 0.6}, 320, 0, 0, obs.Spec{Metrics: true})
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
	if got, want := cells[0].Label(), "racksweep/dNIC/racks=2/ecn=off/load=0.1"; got != want {
		t.Errorf("cell 0 label = %q, want %q", got, want)
	}
	for i, c := range cells {
		reg := c.Metrics()
		arch := rows[i].Arch
		if got := reg.Counter(arch + ".delivered").Value(); got != int64(rows[i].Delivered) {
			t.Errorf("cell %d (%s): delivered counter %d != row %d", i, c.Label(), got, rows[i].Delivered)
		}
		if got := reg.Counter(arch + ".dropped").Value(); got != int64(rows[i].Dropped) {
			t.Errorf("cell %d (%s): dropped counter %d != row %d", i, c.Label(), got, rows[i].Dropped)
		}
		if got := reg.Counter(arch + ".ecn_marked").Value(); got != int64(rows[i].Marked) {
			t.Errorf("cell %d (%s): ecn_marked counter %d != row %d", i, c.Label(), got, rows[i].Marked)
		}
		if got := reg.Gauge(arch + ".spine_max_depth").Value(); got != int64(rows[i].SpineMaxDepth) {
			t.Errorf("cell %d (%s): spine_max_depth gauge %d != row %d", i, c.Label(), got, rows[i].SpineMaxDepth)
		}
		if got := reg.Gauge(arch + ".rx_max_depth").Value(); got != int64(rows[i].RxMaxDepth) {
			t.Errorf("cell %d (%s): rx_max_depth gauge %d != row %d", i, c.Label(), got, rows[i].RxMaxDepth)
		}
	}
}
